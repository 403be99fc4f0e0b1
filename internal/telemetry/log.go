// log.go: the logger a component falls back to when its Config.Logger is
// nil.  The standard library gained slog.DiscardHandler after this module's
// language level (go 1.22), so the one hand-written no-op handler lives here.
package telemetry

import (
	"context"
	"log/slog"
)

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
