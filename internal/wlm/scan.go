// Byte-oriented accounting parser, the one ingestion runs. CheckLineBytes
// parses a line from a byte view into a compact ScanRecord of field views
// instead of a map-backed Record; Assembler.AddScan folds it. The string
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

// FieldSet records which accounting fields a ScanRecord carries. A field's
// bit is set only when the field was present, non-empty and (for numeric
// fields) parseable — replicating the Assembler's ignore-unparseable
// policy.
type FieldSet uint16

// Field presence bits.
const (
	HasUser FieldSet = 1 << iota
	HasAccount
	HasQueue
	HasCtime
	HasStart
	HasEnd
	HasNodect
	HasWalltime
	HasUsedWalltime
	HasExitStatus
)

// ScanRecord is one parsed accounting record with byte views into the
// caller's buffer. Views (JobID, User, Account, Queue) are valid only as
// long as the underlying buffer; AddScan copies what it retains.
type ScanRecord struct {
	Time  time.Time
	Type  EventType
	JobID []byte
	// Field views and parsed values; consult Has before reading.
	User, Account, Queue          []byte
	CreatedAt, StartedAt, EndedAt time.Time
	Nodes                         int
	Walltime, UsedWalltime        time.Duration
	ExitStatus                    int
	Has                           FieldSet
}

// CheckLineBytes is the per-line acceptance function of the accounting
// format: blank lines are skipped, lines failing the shared encoding/oversize
// checks or the format parse return a typed *parse.Error, and everything else
// yields the parsed ScanRecord. Timestamps are interpreted in loc (UTC if
// nil). It allocates only on malformed or non-canonical input.
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

	t, ok := parseStampFastWlm(ts, loc)
	if !ok {
		var err error
		t, err = time.ParseInLocation(stampLayout, string(ts), loc)
		if err != nil {
			return ScanRecord{}, false, parse.Errorf(parse.KindTimestamp, parse.SampleText(b), "wlm: bad timestamp: %s", err.Error())
		}
	}
	if len(typ) != 1 || !EventType(typ[0]).Valid() {
		return ScanRecord{}, false, parse.Errorf(parse.KindStructure, parse.SampleText(b), "wlm: bad record type %q", typ)
	}
	if len(jobID) == 0 {
		return ScanRecord{}, false, errLine(parse.KindStructure, b, "wlm: empty job id")
	}
	r.Time = t
	r.Type = EventType(typ[0])
	r.JobID = jobID

	// Walk the space-separated k=v fields, retaining the LAST occurrence of
	// each known key (the map in ParseRecord is last-wins).
	var ctime, start, end, nodect, wall, usedWall, exitStatus []byte
	var seen FieldSet
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
		k, v := kv[:eq], kv[eq+1:]
		switch {
		case bytes.Equal(k, keyUser):
			r.User, seen = v, seen|HasUser
		case bytes.Equal(k, keyAccount):
			r.Account, seen = v, seen|HasAccount
		case bytes.Equal(k, keyQueue):
			r.Queue, seen = v, seen|HasQueue
		case bytes.Equal(k, keyCtime):
			ctime, seen = v, seen|HasCtime
		case bytes.Equal(k, keyStart):
			start, seen = v, seen|HasStart
		case bytes.Equal(k, keyEnd):
			end, seen = v, seen|HasEnd
		case bytes.Equal(k, keyNodect):
			nodect, seen = v, seen|HasNodect
		case bytes.Equal(k, keyWalltime):
			wall, seen = v, seen|HasWalltime
		case bytes.Equal(k, keyUsedWall):
			usedWall, seen = v, seen|HasUsedWalltime
		case bytes.Equal(k, keyExit):
			exitStatus, seen = v, seen|HasExitStatus
		}
	}
	// Resolve values with the Assembler's ignore-unparseable policy: a bit
	// is set only when the (last) value is non-empty / parseable.
	if seen&HasUser != 0 && len(r.User) > 0 {
		r.Has |= HasUser
	}
	if seen&HasAccount != 0 && len(r.Account) > 0 {
		r.Has |= HasAccount
	}
	if seen&HasQueue != 0 && len(r.Queue) > 0 {
		r.Has |= HasQueue
	}
	if seen&HasCtime != 0 {
		if sec, ok := parse.ParseInt64(ctime); ok {
			r.CreatedAt, r.Has = time.Unix(sec, 0).UTC(), r.Has|HasCtime
		}
	}
	if seen&HasStart != 0 {
		if sec, ok := parse.ParseInt64(start); ok {
			r.StartedAt, r.Has = time.Unix(sec, 0).UTC(), r.Has|HasStart
		}
	}
	if seen&HasEnd != 0 {
		if sec, ok := parse.ParseInt64(end); ok {
			r.EndedAt, r.Has = time.Unix(sec, 0).UTC(), r.Has|HasEnd
		}
	}
	if seen&HasNodect != 0 {
		if n, ok := parse.Atoi(nodect); ok {
			r.Nodes, r.Has = n, r.Has|HasNodect
		}
	}
	if seen&HasWalltime != 0 {
		if d, ok := parseWalltimeBytes(wall); ok {
			r.Walltime, r.Has = d, r.Has|HasWalltime
		}
	}
	if seen&HasUsedWalltime != 0 {
		if d, ok := parseWalltimeBytes(usedWall); ok {
			r.UsedWalltime, r.Has = d, r.Has|HasUsedWalltime
		}
	}
	if seen&HasExitStatus != 0 {
		if n, ok := parse.Atoi(exitStatus); ok {
			r.ExitStatus, r.Has = n, r.Has|HasExitStatus
		}
	}
	return r, false, nil
}

// Known accounting field keys.
var (
	keyUser     = []byte("user")
	keyAccount  = []byte("account")
	keyQueue    = []byte("queue")
	keyCtime    = []byte("ctime")
	keyStart    = []byte("start")
	keyEnd      = []byte("end")
	keyNodect   = []byte("Resource_List.nodect")
	keyWalltime = []byte("Resource_List.walltime")
	keyUsedWall = []byte("resources_used.walltime")
	keyExit     = []byte("Exit_status")
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

// parseStampFastWlm parses the canonical zero-padded form of stampLayout
// ("01/02/2006 15:04:05") without allocating. Deviations (including the
// 1-digit hours time.Parse tolerates) return ok == false and take the
// time.ParseInLocation fallback, which is authoritative.
func parseStampFastWlm(b []byte, loc *time.Location) (time.Time, bool) {
	if len(b) != 19 || b[2] != '/' || b[5] != '/' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	mo, ok1 := parse.Digits2(b[0], b[1])
	day, ok2 := parse.Digits2(b[3], b[4])
	year, ok3 := parse.Digits(b[6:10])
	hour, ok4 := parse.Digits2(b[11], b[12])
	min, ok5 := parse.Digits2(b[14], b[15])
	sec, ok6 := parse.Digits2(b[17], b[18])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	if mo < 1 || mo > 12 || day < 1 || day > parse.DaysIn(mo, year) || hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(mo), day, hour, min, sec, 0, loc), true
}

// AddScan folds one ScanRecord into the assembler. Unparseable field values
// were already dropped by CheckLineBytes rather than treated as errors: field
// sets vary across WLM versions. Retained strings (job ID on first sight;
// user/account/queue) are copied out of the caller's buffer, the short
// per-job strings through the assembler's intern table so repeated values
// share storage.
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
	j := &a.jobs[i]
	if r.Has&HasUser != 0 {
		j.User = a.intern(r.User)
	}
	if r.Has&HasAccount != 0 {
		j.Account = a.intern(r.Account)
	}
	if r.Has&HasQueue != 0 {
		j.Queue = a.intern(r.Queue)
	}
	if r.Has&HasCtime != 0 {
		j.CreatedAt = r.CreatedAt
	}
	if r.Has&HasStart != 0 {
		j.StartedAt = r.StartedAt
	}
	if r.Has&HasEnd != 0 {
		j.EndedAt = r.EndedAt
	}
	if r.Has&HasNodect != 0 {
		j.Nodes = r.Nodes
	}
	if r.Has&HasWalltime != 0 {
		j.Walltime = r.Walltime
	}
	if r.Has&HasUsedWalltime != 0 {
		j.UsedWalltime = r.UsedWalltime
	}
	if r.Has&HasExitStatus != 0 {
		j.ExitStatus = r.ExitStatus
	}
	switch r.Type {
	case EventStart:
		if j.StartedAt.IsZero() {
			j.StartedAt = r.Time
		}
	case EventEnd:
		if j.EndedAt.IsZero() {
			j.EndedAt = r.Time
		}
	case EventAbort:
		j.Aborted = true
	default:
		// Queue and delete records carry no state the assembled job tracks.
	}
	return nil
}

// intern returns a canonical string for b, copying it at most once.
func (a *Assembler) intern(b []byte) string {
	if s, ok := a.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	a.interned[s] = s
	return s
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
