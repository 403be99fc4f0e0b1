// export_test.go hands the in-package test helpers to the external test
// package acqserver_test, which — unlike this package's own tests — may
// import internal/gateway (the gateway imports acqserver).
package acqserver

import (
	"testing"

	"repro/internal/frameio"
	"repro/internal/hybrid"
	"repro/internal/instrument"
)

var (
	TestConfig     = testConfig
	StartServer    = startServer
	SignalFrame    = signalFrame
	EncodedPayload = encodedPayload
	SamePeaks      = samePeaks
	RecoverResults = recoverResults
)

// ServedInputs names servedInputs' frames and encodings for the external
// tests.
func ServedInputs(t *testing.T, order int) (names []string, frames []*instrument.Frame, encs []frameio.Encoding) {
	for _, in := range servedInputs(t, order) {
		names, frames, encs = append(names, in.name), append(frames, in.frame), append(encs, in.enc)
	}
	return names, frames, encs
}

// Summarize is the server's own frame-to-peak-list step.
func (s *Server) Summarize(f *instrument.Frame) []PeakSummary {
	return s.summarize(new(workerState), f.DriftProfile(), nil)
}

// OffloadConfig is the offload configuration the hybrid path runs with, as
// NewServer derived it from the Config.
func (s *Server) OffloadConfig() hybrid.OffloadConfig { return s.offload }
