package parse

// The string-form reference of CheckLineBytes. No product code calls it;
// TestCheckLineBytesMatchesCheckLine pins the byte form to it.

import (
	"strings"
	"unicode/utf8"
)

// CheckLine applies the format-independent acceptance checks every parser
// shares: the line must fit MaxLineBytes, carry no NUL bytes, and be valid
// UTF-8. Returns nil when the line passes.
func CheckLine(text string) *Error {
	if len(text) > MaxLineBytes {
		return Errorf(KindOversize, text, "line exceeds %d bytes (%d)", MaxLineBytes, len(text))
	}
	if strings.IndexByte(text, 0) >= 0 {
		return Errorf(KindEncoding, text, "NUL byte in line")
	}
	if !utf8.ValidString(text) {
		return Errorf(KindEncoding, text, "invalid UTF-8")
	}
	return nil
}
