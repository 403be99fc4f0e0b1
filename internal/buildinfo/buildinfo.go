// Package buildinfo carries the link-time build identity.  The Makefile
// stamps these via
//
//	go build -ldflags "-X repro/internal/buildinfo.Version=v1.2.3 \
//	                   -X repro/internal/buildinfo.Commit=abc1234"
//
// and internal/telemetry/runtimemetrics exposes them as the build_info
// metric family, so every binary's /metrics answers "exactly which build
// is this" — the first question of any incident.  Unstamped builds
// (go test, go run) report the defaults below, except that build_info's
// commit falls back to the VCS revision the Go toolchain embeds on its
// own, and its modified label carries that stamp's dirty bit.
package buildinfo

// Version is the human-readable release identity (git describe), "dev"
// when the binary was built without stamping.
var Version = "dev"

// Commit is the VCS commit the binary was built from, "unknown" when the
// binary was built without stamping.
var Commit = "unknown"
