package syslogx

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"logdiver/internal/parse"
)

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	tm, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestFormatParseRoundTrip(t *testing.T) {
	tests := []Line{
		{
			Time:    mustTime(t, "2013-04-03T12:34:56.123456-05:00"),
			Host:    "c1-3c2s7n1",
			Tag:     "kernel",
			Message: "Machine Check Exception: corrected DRAM error",
		},
		{
			Time:    mustTime(t, "2013-04-03T00:00:00Z"),
			Host:    "smw",
			Tag:     "xtevent",
			Message: "HSS alert: node heartbeat fault on c2-1c0s4n2, declaring node dead",
		},
		{
			Time:    mustTime(t, "2014-01-01T01:02:03.000004Z"),
			Host:    "sdb",
			Tag:     "apsys",
			Message: "",
		},
		{
			Time:    mustTime(t, "2013-06-30T23:59:59.999999-05:00"),
			Host:    "c0-0c0s0n0",
			Tag:     "xtnlrd",
			Message: "msg with: colons: inside",
		},
	}
	for _, l := range tests {
		wire := Format(l)
		got, err := Parse(wire)
		if err != nil {
			t.Fatalf("Parse(%q): %v", wire, err)
		}
		if !got.Time.Equal(l.Time) || got.Host != l.Host || got.Tag != l.Tag || got.Message != l.Message {
			t.Errorf("round trip %q:\n got %+v\nwant %+v", wire, got, l)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"nota timestamp at all",
		"2013-04-03T12:34:56.123456-05:00",      // timestamp only
		"2013-04-03T12:34:56.123456-05:00 host", // no tag
		"2013-04-03T12:34:56.123456-05:00 host no colon", // tag without colon
		"99/99/99 host kernel: msg",                      // bad timestamp
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		} else {
			var pe *parse.Error
			if !errors.As(err, &pe) {
				t.Errorf("Parse(%q) error %T, want *parse.Error", s, err)
			}
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Parse("garbage")
	var pe *parse.Error
	if !errors.As(err, &pe) {
		t.Fatalf("want *parse.Error, got %T", err)
	}
	if !strings.Contains(pe.Error(), "garbage") {
		t.Errorf("error %q does not include offending line", pe.Error())
	}
	pe.Line = 7
	if !strings.Contains(pe.Error(), "line 7") {
		t.Errorf("error %q does not include line number", pe.Error())
	}
	pe.Archive = "syslog"
	if !strings.HasPrefix(pe.Error(), "syslog: ") {
		t.Errorf("error %q does not lead with the archive name", pe.Error())
	}
}

func TestParsePropertyRoundTrip(t *testing.T) {
	base := time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)
	f := func(hostSeed, tagSeed uint8, msg string, offset uint32) bool {
		// Hosts and tags must be non-empty and space-free; messages must
		// be newline-free for the line format.
		hosts := []string{"c0-0c0s0n0", "smw", "sdb", "nid00123"}
		tags := []string{"kernel", "xtevent", "apsys", "HWERR"}
		msg = strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return ' '
			}
			return r
		}, msg)
		l := Line{
			Time:    base.Add(time.Duration(offset) * time.Microsecond),
			Host:    hosts[int(hostSeed)%len(hosts)],
			Tag:     tags[int(tagSeed)%len(tags)],
			Message: msg,
		}
		got, err := Parse(Format(l))
		return err == nil && got.Time.Equal(l.Time) && got.Host == l.Host &&
			got.Tag == l.Tag && got.Message == l.Message
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestWriterScannerStream: lines rendered by Format stream back through the
// CheckLineBytes scan.
func TestWriterScannerStream(t *testing.T) {
	var buf strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	const n = 100
	for i := 0; i < n; i++ {
		buf.WriteString(Format(Line{
			Time:    base.Add(time.Duration(i) * time.Second),
			Host:    "c0-0c0s0n1",
			Tag:     "kernel",
			Message: "event " + strings.Repeat("x", i%7),
		}) + "\n")
	}
	lines, stats, err := scan(buf.String(), parse.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != n {
		t.Fatalf("scanned %d lines, want %d", len(lines), n)
	}
	if stats.Malformed() != 0 {
		t.Errorf("Malformed = %d, want 0", stats.Malformed())
	}
	if last, wantTime := lines[n-1], base.Add((n-1)*time.Second); !last.Time.Equal(wantTime) {
		t.Errorf("last line time %v, want %v", last.Time, wantTime)
	}
}

func TestScannerSkipsNoise(t *testing.T) {
	good := Format(Line{
		Time: time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC),
		Host: "smw", Tag: "xtevent", Message: "ok",
	})
	input := strings.Join([]string{
		"totally broken line",
		good,
		"",
		"   ",
		"another bad one",
		good,
	}, "\n")
	lines, stats, err := scan(input, parse.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Errorf("scanned %d lines, want 2", len(lines))
	}
	if stats.Malformed() != 2 {
		t.Errorf("Malformed = %d, want 2 (blank lines are not malformed)", stats.Malformed())
	}
}

func TestScannerLongLines(t *testing.T) {
	long := Format(Line{
		Time: time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC),
		Host: "c0-0c0s0n1", Tag: "kernel",
		Message: strings.Repeat("a", 200000),
	})
	lines, _, err := scan(long, parse.Strict)
	if err != nil || len(lines) != 1 {
		t.Fatalf("scan of a long line: %d lines, %v", len(lines), err)
	}
	if len(lines[0].Message) != 200000 {
		t.Errorf("message truncated to %d bytes", len(lines[0].Message))
	}
}
