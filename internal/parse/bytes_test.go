package parse

import (
	"strconv"
	"strings"
	"testing"
)

// numCorpus exercises every acceptance edge of the numeric parsers: signs,
// leading zeros, the 18/19-digit fast-path cutovers, int64/uint64 overflow
// boundaries, and inputs strconv rejects.
var numCorpus = []string{
	"", "0", "1", "-1", "+1", "42", "007", "-007", "+007",
	"123456789012345678",   // 18 digits: fast path
	"1234567890123456789",  // 19 digits: strconv path for signed
	"12345678901234567890", // 20 digits
	"9223372036854775807", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809",
	"18446744073709551615", "18446744073709551616",
	"1.5", "1e3", " 1", "1 ", "--1", "+-1", "-+1", "++1",
	"0x10", "abc", "12a", "a12", "-", "+", "٣", "١٢٣",
	"000000000000000000000000000000000001",
}

func TestAtoiMatchesStrconv(t *testing.T) {
	for _, s := range numCorpus {
		want, err := strconv.Atoi(s)
		got, ok := Atoi([]byte(s))
		if ok != (err == nil) {
			t.Errorf("Atoi(%q) ok=%v, strconv err=%v", s, ok, err)
			continue
		}
		if ok && got != want {
			t.Errorf("Atoi(%q) = %d, strconv = %d", s, got, want)
		}
	}
}

func TestParseUint64MatchesStrconv(t *testing.T) {
	for _, s := range numCorpus {
		want, err := strconv.ParseUint(s, 10, 64)
		got, ok := ParseUint64([]byte(s))
		if ok != (err == nil) {
			t.Errorf("ParseUint64(%q) ok=%v, strconv err=%v", s, ok, err)
			continue
		}
		if ok && got != want {
			t.Errorf("ParseUint64(%q) = %d, strconv = %d", s, got, want)
		}
	}
}

func TestBlankMatchesTrimSpace(t *testing.T) {
	for _, s := range []string{"", " ", "\t", " \t \n", " ", "a", " a ", ".", "0"} {
		if got, want := Blank([]byte(s)), strings.TrimSpace(s) == ""; got != want {
			t.Errorf("Blank(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestCheckLineBytesMatchesCheckLine(t *testing.T) {
	lines := []string{
		"a perfectly fine line",
		"",
		strings.Repeat("x", MaxLineBytes),
		strings.Repeat("x", MaxLineBytes+1),
		"nul\x00byte",
		"bad utf8 \xff\xfe",
		"unicode ok ☃",
	}
	for _, s := range lines {
		want := CheckLine(s)
		got := CheckLineBytes([]byte(s))
		if (want == nil) != (got == nil) {
			t.Errorf("CheckLineBytes(%q) = %v, CheckLine = %v", s, got, want)
			continue
		}
		if want == nil {
			continue
		}
		if got.Kind != want.Kind || got.Error() != want.Error() {
			t.Errorf("CheckLineBytes(%q) = %v (%v), CheckLine = %v (%v)",
				s, got, got.Kind, want, want.Kind)
		}
	}
}

// TestNumericParsersZeroAlloc gates the steady-state hot path: parsing a
// well-formed in-range number, or rejecting a non-numeric one (the parsers
// drop an unparseable field, they do not fail the line), must not allocate.
func TestNumericParsersZeroAlloc(t *testing.T) {
	in := []byte("1365000000")
	neg := []byte("-265")
	bad := []byte("12a")
	if n := testing.AllocsPerRun(200, func() {
		Atoi(in)
		Atoi(neg)
		ParseUint64(in)
		if _, ok := Atoi(bad); ok {
			t.Fatal("Atoi accepted 12a")
		}
		if _, ok := ParseUint64(bad); ok {
			t.Fatal("ParseUint64 accepted 12a")
		}
		if _, ok := Digits2('1', 'x'); ok {
			t.Fatal("Digits2 accepted 1x")
		}
		if _, ok := Digits(bad); ok {
			t.Fatal("Digits accepted 12a")
		}
	}); n != 0 {
		t.Errorf("numeric fast paths allocate %.1f allocs/op, want 0", n)
	}
	line := []byte("04/03/2013 12:00:01;E;9.bw;Exit_status=0 user=alice")
	if n := testing.AllocsPerRun(200, func() {
		if CheckLineBytes(line) != nil {
			t.Fatal("well-formed line rejected")
		}
		if Blank(line) {
			t.Fatal("non-blank line reported blank")
		}
	}); n != 0 {
		t.Errorf("line acceptance fast path allocates %.1f allocs/op, want 0", n)
	}
}
