// Package field is the error type of configuration validation: an
// error that names the offending field by its path, so the same rule
// can report "Groups[1].Weight" to a Go caller and, translated,
// "fleet.groups[1].weight" to a scenario author. Validators return
// paths relative to their own struct; the caller that embeds the
// struct adds its prefix with Under.
package field

import (
	"errors"
	"fmt"
	"strings"
)

// Error is a validation failure at one field path.
type Error struct {
	// Path names the field: dotted names with [i] indices
	// ("Tenants.Lanes[2].ID").
	Path string
	// Err says what is wrong with the value.
	Err error
}

// Error renders "path: message".
func (e *Error) Error() string { return e.Path + ": " + e.Err.Error() }

// Unwrap returns the underlying message error.
func (e *Error) Unwrap() error { return e.Err }

// Errorf returns a field error at path with a formatted message.
func Errorf(path, format string, args ...any) error {
	return &Error{Path: path, Err: fmt.Errorf(format, args...)}
}

// Under re-roots err below prefix: a field error's path gains the
// prefix ("Trigger" under "Hedge" is "Hedge.Trigger", "[2].ID" under
// "Tenants" is "Tenants[2].ID"); any other non-nil error is placed at
// the prefix itself. Under(prefix, nil) is nil.
func Under(prefix string, err error) error {
	if err == nil {
		return nil
	}
	var fe *Error
	if !errors.As(err, &fe) {
		return &Error{Path: prefix, Err: err}
	}
	if strings.HasPrefix(fe.Path, "[") {
		return &Error{Path: prefix + fe.Path, Err: fe.Err}
	}
	return &Error{Path: prefix + "." + fe.Path, Err: fe.Err}
}
