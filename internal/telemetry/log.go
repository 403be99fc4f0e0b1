// log.go: the logger a component falls back to when its Config.Logger is
// nil, and the one spelling of a trace id every surface writes.  The
// standard library gained slog.DiscardHandler after this module's language
// level (go 1.22), so the one hand-written no-op handler lives here.
package telemetry

import (
	"context"
	"log/slog"
	"strconv"
)

// TraceID is a trace identity as every surface spells it: 16 lowercase hex
// digits in histogram exemplars, wide events, /debug/traces, Perfetto args
// and log attributes, so one grep joins them all.  Zero (tracing off)
// spells "".
type TraceID uint64

// String returns the 16-digit spelling, or "" for zero.
func (id TraceID) String() string {
	if id == 0 {
		return ""
	}
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// LogValue spells the id only when a handler actually writes the record,
// so a trace_id attribute on a disabled level formats nothing.
func (id TraceID) LogValue() slog.Value { return slog.StringValue(id.String()) }

// MarshalText writes the 16-digit spelling, so encoding/json does too.
func (id TraceID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

// UnmarshalText reads what MarshalText writes: hex digits, or "" for zero.
func (id *TraceID) UnmarshalText(b []byte) (err error) {
	var v uint64
	if len(b) > 0 {
		v, err = strconv.ParseUint(string(b), 16, 64)
	}
	*id = TraceID(v)
	return err
}

// DiscardLogger returns a logger that drops every record without
// formatting it.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

// discardHandler is a no-op slog.Handler.
type discardHandler struct{}

// Enabled reports false for every level.
func (discardHandler) Enabled(context.Context, slog.Level) bool { return false }

// Handle drops the record.
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }

// WithAttrs returns the handler unchanged.
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler { return d }

// WithGroup returns the handler unchanged.
func (d discardHandler) WithGroup(string) slog.Handler { return d }
