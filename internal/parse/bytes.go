// Byte-view per-line acceptance checks and numeric field parsing, used by
// the zero-allocation ingestion hot path. Their references are strconv and
// the string CheckLine in reference_test.go; the differential tests in
// bytes_test.go pin the byte forms to them so the two cannot drift.

package parse

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// Blank reports whether the line is empty or whitespace-only, matching
// strings.TrimSpace(string(b)) == "".
func Blank(b []byte) bool {
	return len(bytes.TrimSpace(b)) == 0
}

// SampleText converts at most SampleTextBytes of b to a string, for error
// text retention without materializing a whole oversized line.
func SampleText(b []byte) string {
	if len(b) > SampleTextBytes {
		b = b[:SampleTextBytes]
	}
	return string(b)
}

// CheckLineBytes applies the format-independent acceptance checks every
// parser shares: the line must fit MaxLineBytes, carry no NUL bytes, and be
// valid UTF-8. It returns nil when the line passes and allocates only when
// building an error.
func CheckLineBytes(b []byte) *Error {
	if len(b) > MaxLineBytes {
		return Errorf(KindOversize, SampleText(b), "line exceeds %d bytes (%d)", MaxLineBytes, len(b))
	}
	if bytes.IndexByte(b, 0) >= 0 {
		return Errorf(KindEncoding, SampleText(b), "NUL byte in line")
	}
	if !utf8.Valid(b) {
		return Errorf(KindEncoding, SampleText(b), "invalid UTF-8")
	}
	return nil
}

// Atoi parses b with the exact acceptance of strconv.Atoi, without
// allocating. ok is false on any input strconv.Atoi would reject.
func Atoi(b []byte) (int, bool) {
	s := b
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	// 18 digits cannot overflow int64; longer (or empty) inputs take the
	// strconv path so overflow and error behavior match exactly.
	if len(s) == 0 || len(s) > 18 {
		n, err := strconv.Atoi(string(b))
		return n, err == nil
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// ParseUint64 parses b with the exact acceptance of
// strconv.ParseUint(string(b), 10, 64), without allocating.
func ParseUint64(b []byte) (uint64, bool) {
	// 19 digits cannot overflow uint64.
	if len(b) == 0 || len(b) > 19 {
		n, err := strconv.ParseUint(string(b), 10, 64)
		return n, err == nil
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// Digits2 reads a two-digit decimal field of a fixed-width timestamp.
func Digits2(a, b byte) (int, bool) {
	if a < '0' || a > '9' || b < '0' || b > '9' {
		return 0, false
	}
	return int(a-'0')*10 + int(b-'0'), true
}

// Digits reads a fixed-width, digits-only decimal field (a 4-digit year, a
// 6-digit microsecond count): no sign, and the caller bounds the width.
func Digits(b []byte) (int, bool) {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// DaysIn returns the day count of month m in year y (Gregorian).
func DaysIn(m, y int) int {
	switch m {
	case 1, 3, 5, 7, 8, 10, 12:
		return 31
	case 4, 6, 9, 11:
		return 30
	}
	if y%4 == 0 && (y%100 != 0 || y%400 == 0) {
		return 29
	}
	return 28
}
