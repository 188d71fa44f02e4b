// Byte-oriented accounting parser, the one ingestion runs. CheckLineBytes
// checks a line from a byte view and keeps what the job table needs — the
// job ID view and the two walltimes — in a ScanRecord instead of a
// map-backed Record; Assembler.AddScan folds it. The string
// reference it is pinned to (ParseRecord, CheckLine, Assembler.Add) lives in
// reference_test.go, where the differential tests and fuzzers compare the
// two.

package wlm

import (
	"bytes"
	"fmt"
	"time"
	"unicode"
	"unicode/utf8"

	"logdiver/internal/parse"
	"logdiver/internal/stream"
)

// FieldSet records which walltimes a ScanRecord carries. A bit is set only
// when the record's last value for the key parses, replicating the
// Assembler's ignore-unparseable policy.
type FieldSet uint8

// Field presence bits.
const (
	HasWalltime FieldSet = 1 << iota
	HasUsedWalltime
)

// ScanRecord is what ingestion keeps of one accounting record: the job it
// names, as a view into the caller's buffer valid only as long as that
// buffer (AddScan copies it on the job's first sight), and the requested
// and consumed walltimes it carries.
type ScanRecord struct {
	JobID []byte
	// Walltime and UsedWalltime are valid when their Has bit is set.
	Walltime, UsedWalltime time.Duration
	Has                    FieldSet
}

// CheckLineBytes is the per-line acceptance function of the accounting
// format: blank lines are skipped, lines failing the shared encoding/oversize
// checks or the format parse return a typed *parse.Error, and everything else
// yields the parsed ScanRecord. A line is well formed when it has the four
// ;-joined parts, a valid timestamp (read in loc, UTC if nil), a known record
// type, a non-empty job ID and k=v tokens only; of the tokens only the two
// walltimes are read. It allocates only on malformed or non-canonical input.
func CheckLineBytes(b []byte, loc *time.Location) (r ScanRecord, skip bool, perr *parse.Error) {
	if loc == nil {
		loc = time.UTC
	}
	if parse.Blank(b) {
		return ScanRecord{}, true, nil
	}
	if e := parse.CheckLineBytes(b); e != nil {
		return ScanRecord{}, false, e
	}
	// Split into the four ;-joined parts, like strings.SplitN(s, ";", 4).
	i1 := bytes.IndexByte(b, ';')
	if i1 < 0 {
		return ScanRecord{}, false, errLine(parse.KindStructure, b, "wlm: record has 1 fields, want 4")
	}
	i2 := bytes.IndexByte(b[i1+1:], ';')
	if i2 < 0 {
		return ScanRecord{}, false, errLine(parse.KindStructure, b, "wlm: record has 2 fields, want 4")
	}
	i2 += i1 + 1
	i3 := bytes.IndexByte(b[i2+1:], ';')
	if i3 < 0 {
		return ScanRecord{}, false, errLine(parse.KindStructure, b, "wlm: record has 3 fields, want 4")
	}
	i3 += i2 + 1
	ts, typ, jobID, fields := b[:i1], b[i1+1:i2], b[i2+1:i3], b[i3+1:]

	if !canonicalStamp(ts) {
		if _, err := time.ParseInLocation(stampLayout, string(ts), loc); err != nil {
			return ScanRecord{}, false, parse.Errorf(parse.KindTimestamp, parse.SampleText(b), "wlm: bad timestamp: %s", err.Error())
		}
	}
	if len(typ) != 1 || !EventType(typ[0]).Valid() {
		return ScanRecord{}, false, parse.Errorf(parse.KindStructure, parse.SampleText(b), "wlm: bad record type %q", typ)
	}
	if len(jobID) == 0 {
		return ScanRecord{}, false, errLine(parse.KindStructure, b, "wlm: empty job id")
	}
	r.JobID = jobID

	// Walk the space-separated k=v fields, retaining the LAST occurrence of
	// each walltime key (the map in ParseRecord is last-wins).
	var wall, usedWall []byte
	for i := 0; i < len(fields); {
		// Skip field separators (any Unicode space, like strings.Fields).
		if isSp, w := spaceAt(fields, i); isSp {
			i += w
			continue
		}
		// Take the token.
		tok := i
		for i < len(fields) {
			isSp, w := spaceAt(fields, i)
			if isSp {
				break
			}
			i += w
		}
		kv := fields[tok:i]
		eq := bytes.IndexByte(kv, '=')
		if eq < 0 {
			return ScanRecord{}, false, parse.Errorf(parse.KindField, parse.SampleText(b), "wlm: malformed field %q", kv)
		}
		switch k := kv[:eq]; {
		case bytes.Equal(k, keyWalltime):
			wall = kv[eq+1:]
		case bytes.Equal(k, keyUsedWall):
			usedWall = kv[eq+1:]
		}
	}
	// An absent key leaves a nil view, which does not parse either.
	if d, ok := parseWalltimeBytes(wall); ok {
		r.Walltime, r.Has = d, r.Has|HasWalltime
	}
	if d, ok := parseWalltimeBytes(usedWall); ok {
		r.UsedWalltime, r.Has = d, r.Has|HasUsedWalltime
	}
	return r, false, nil
}

// The accounting field keys ingestion reads.
var (
	keyWalltime = []byte("Resource_List.walltime")
	keyUsedWall = []byte("resources_used.walltime")
)

// spaceAt reports whether the byte sequence at b[i:] starts with a Unicode
// space (the separator set of strings.Fields) and its encoded width.
func spaceAt(b []byte, i int) (bool, int) {
	c := b[i]
	if c < utf8.RuneSelf {
		return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r', 1
	}
	r, w := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), w
}

func errLine(kind parse.Kind, line []byte, reason string) *parse.Error {
	return parse.Errorf(kind, parse.SampleText(line), "%s", reason)
}

// parseWalltimeBytes parses the HH:MM:SS convention with the exact
// acceptance of ParseWalltime, without allocating.
func parseWalltimeBytes(b []byte) (time.Duration, bool) {
	c1 := bytes.IndexByte(b, ':')
	if c1 < 0 {
		return 0, false
	}
	c2 := bytes.IndexByte(b[c1+1:], ':')
	if c2 < 0 {
		return 0, false
	}
	c2 += c1 + 1
	if bytes.IndexByte(b[c2+1:], ':') >= 0 {
		return 0, false // more than three parts
	}
	h, ok := parse.Atoi(b[:c1])
	if !ok || h < 0 {
		return 0, false
	}
	m, ok := parse.Atoi(b[c1+1 : c2])
	if !ok || m < 0 || m > 59 {
		return 0, false
	}
	s, ok := parse.Atoi(b[c2+1:])
	if !ok || s < 0 || s > 59 {
		return 0, false
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(s)*time.Second, true
}

// canonicalStamp reports whether b is a valid timestamp in the canonical
// zero-padded form of stampLayout ("01/02/2006 15:04:05"), without
// allocating. Deviations (including the 1-digit hours time.Parse tolerates)
// report false and take the time.ParseInLocation fallback, which is
// authoritative.
func canonicalStamp(b []byte) bool {
	if len(b) != 19 || b[2] != '/' || b[5] != '/' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return false
	}
	mo, ok1 := parse.Digits2(b[0], b[1])
	day, ok2 := parse.Digits2(b[3], b[4])
	year, ok3 := parse.Digits(b[6:10])
	hour, ok4 := parse.Digits2(b[11], b[12])
	min, ok5 := parse.Digits2(b[14], b[15])
	sec, ok6 := parse.Digits2(b[17], b[18])
	return ok1 && ok2 && ok3 && ok4 && ok5 && ok6 &&
		mo >= 1 && mo <= 12 && day >= 1 && day <= parse.DaysIn(mo, year) && hour <= 23 && min <= 59 && sec <= 59
}

// AddScan folds one ScanRecord into the assembler: the job it names joins
// the table on first sight (its ID copied out of the caller's buffer), and
// the walltimes the record carries overwrite the job's. Unparseable values
// were already dropped by CheckLineBytes rather than treated as errors:
// field sets vary across WLM versions.
func (a *Assembler) AddScan(r ScanRecord) error {
	if len(r.JobID) == 0 {
		return fmt.Errorf("wlm: record with empty job id")
	}
	i, ok := a.index[string(r.JobID)]
	if !ok {
		i = len(a.jobs)
		a.jobs = append(a.jobs, Job{ID: string(r.JobID)})
		a.index[a.jobs[i].ID] = i
	}
	if r.Has&HasWalltime != 0 {
		a.jobs[i].Walltime = r.Walltime
	}
	if r.Has&HasUsedWalltime != 0 {
		a.jobs[i].UsedWalltime = r.UsedWalltime
	}
	return nil
}

// ScanBlockMode is the unit of work of ingestion: it parses a block whose
// first line is archive line firstLine into ScanRecords, applying
// CheckLineBytes to every line. In lenient mode
// malformed lines are accounted in stats with their archive line numbers; in
// strict mode the first malformed line fails the block with its typed error.
// CheckLineBytes is pure, so blocks parse safely on concurrent goroutines;
// concatenating results in block order reproduces a sequential scan. The
// returned records hold views into block; callers must fold them (AddScan
// copies what it retains) before the block's buffer is reused.
func ScanBlockMode(block []byte, loc *time.Location, firstLine int, mode parse.Mode) (recs []ScanRecord, stats parse.LineStats, err error) {
	if loc == nil {
		loc = time.UTC
	}
	recs = make([]ScanRecord, 0, len(block)/96)
	no := firstLine - 1
	var failed *parse.Error
	stream.ForEachLine(block, func(raw []byte) {
		no++
		if failed != nil {
			return
		}
		rec, skip, perr := CheckLineBytes(raw, loc)
		if skip {
			return
		}
		if perr != nil {
			perr.Line = no
			if mode == parse.Strict {
				failed = perr
				return
			}
			stats.Record(perr)
			return
		}
		recs = append(recs, rec)
	})
	if failed != nil {
		return nil, parse.LineStats{}, failed
	}
	return recs, stats, nil
}
