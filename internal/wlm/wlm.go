// Package wlm models the workload-manager (Torque/Moab-style) job accounting
// log: the per-job queue/start/end records from which the analysis derives
// job populations, requested resources and batch exit status. The wire
// format follows the PBS/Torque accounting-record convention:
//
//	04/03/2013 12:00:00;E;123456.bw;user=alice queue=normal ctime=1364996400 ... Exit_status=0
//
// i.e. a timestamp, a record-type letter, the job ID, and a space-separated
// key=value field list, all joined by semicolons.
package wlm

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"logdiver/internal/parse"
)

// EventType is the accounting record type letter.
type EventType byte

// Accounting record types (the subset the analysis consumes).
const (
	EventQueue  EventType = 'Q' // job entered the queue
	EventStart  EventType = 'S' // job started
	EventEnd    EventType = 'E' // job ended (normally or not)
	EventAbort  EventType = 'A' // job aborted by the server
	EventDelete EventType = 'D' // job deleted by user or operator
)

// Valid reports whether t is a known record type.
func (t EventType) Valid() bool {
	switch t {
	case EventQueue, EventStart, EventEnd, EventAbort, EventDelete:
		return true
	default:
		return false
	}
}

// Record is one raw accounting record.
type Record struct {
	Time   time.Time
	Type   EventType
	JobID  string
	Fields map[string]string
}

const stampLayout = "01/02/2006 15:04:05"

// FormatRecord renders the record in accounting wire format. Field keys are
// emitted in sorted order so output is deterministic.
func FormatRecord(r Record) string {
	var b strings.Builder
	b.Grow(64 + 24*len(r.Fields))
	b.WriteString(r.Time.Format(stampLayout))
	b.WriteByte(';')
	b.WriteByte(byte(r.Type))
	b.WriteByte(';')
	b.WriteString(r.JobID)
	b.WriteByte(';')
	keys := make([]string, 0, len(r.Fields))
	for k := range r.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(r.Fields[k])
	}
	return b.String()
}

// ParseRecord parses one accounting line. The location loc is applied to the
// record timestamp (accounting stamps carry no zone); pass time.UTC when the
// archive was generated in UTC. Errors are *parse.Error values carrying a
// Kind for the per-kind malformed accounting of the ingestion pipeline.
func ParseRecord(s string, loc *time.Location) (Record, error) {
	var r Record
	parts := strings.SplitN(s, ";", 4)
	if len(parts) != 4 {
		return r, parse.Errorf(parse.KindStructure, s, "wlm: record has %d fields, want 4", len(parts))
	}
	t, err := time.ParseInLocation(stampLayout, parts[0], loc)
	if err != nil {
		return r, parse.Errorf(parse.KindTimestamp, s, "wlm: bad timestamp: %s", err.Error())
	}
	if len(parts[1]) != 1 || !EventType(parts[1][0]).Valid() {
		return r, parse.Errorf(parse.KindStructure, s, "wlm: bad record type %q", parts[1])
	}
	if parts[2] == "" {
		return r, parse.Errorf(parse.KindStructure, s, "wlm: empty job id")
	}
	r.Time = t
	r.Type = EventType(parts[1][0])
	r.JobID = parts[2]
	r.Fields = make(map[string]string, 16)
	if parts[3] != "" {
		for _, kv := range strings.Fields(parts[3]) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return r, parse.Errorf(parse.KindField, s, "wlm: malformed field %q", kv)
			}
			r.Fields[k] = v
		}
	}
	return r, nil
}

// CheckLine is the single authoritative per-line acceptance function of the
// accounting format in string form, shared by the Scanner and the
// robustness reconciler (CheckLineBytes is its ingestion twin, pinned to it
// by the differential tests): blank lines are skipped silently
// (skip == true), lines failing the shared encoding/oversize checks or
// ParseRecord return a typed *parse.Error, and everything else yields the
// parsed Record.
func CheckLine(text string, loc *time.Location) (r Record, skip bool, perr *parse.Error) {
	if strings.TrimSpace(text) == "" {
		return Record{}, true, nil
	}
	if e := parse.CheckLine(text); e != nil {
		return Record{}, false, e
	}
	r, err := ParseRecord(text, loc)
	if err != nil {
		return Record{}, false, err.(*parse.Error)
	}
	return r, false, nil
}

// Job is the assembled view of one batch job.
type Job struct {
	ID        string
	User      string
	Account   string
	Queue     string
	CreatedAt time.Time // ctime
	StartedAt time.Time // start
	EndedAt   time.Time // end
	// Nodes is the requested node count (Resource_List.nodect).
	Nodes int
	// Walltime is the requested wall-clock limit.
	Walltime time.Duration
	// UsedWalltime is the consumed wall clock (resources_used.walltime).
	UsedWalltime time.Duration
	// ExitStatus is the batch exit status; by Torque convention negative
	// values denote jobs killed by the server (e.g. -11 for node failure)
	// and values >= 256 indicate death by signal (status - 256).
	ExitStatus int
	// Aborted records whether an A record was seen for the job.
	Aborted bool
}

// Walltime formatting helpers (HH:MM:SS, hours may exceed 24).

// FormatWalltime renders d in the HH:MM:SS accounting convention.
func FormatWalltime(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	return fmt.Sprintf("%02d:%02d:%02d", total/3600, (total/60)%60, total%60)
}

// ParseWalltime parses the HH:MM:SS accounting convention.
func ParseWalltime(s string) (time.Duration, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("wlm: walltime %q not HH:MM:SS", s)
	}
	h, err := strconv.Atoi(parts[0])
	if err != nil || h < 0 {
		return 0, fmt.Errorf("wlm: walltime hours %q", parts[0])
	}
	m, err := strconv.Atoi(parts[1])
	if err != nil || m < 0 || m > 59 {
		return 0, fmt.Errorf("wlm: walltime minutes %q", parts[1])
	}
	sec, err := strconv.Atoi(parts[2])
	if err != nil || sec < 0 || sec > 59 {
		return 0, fmt.Errorf("wlm: walltime seconds %q", parts[2])
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(sec)*time.Second, nil
}

// EndRecord renders the canonical E record for a completed job.
func EndRecord(j Job) Record {
	f := map[string]string{
		"user":                    j.User,
		"account":                 j.Account,
		"queue":                   j.Queue,
		"ctime":                   strconv.FormatInt(j.CreatedAt.Unix(), 10),
		"start":                   strconv.FormatInt(j.StartedAt.Unix(), 10),
		"end":                     strconv.FormatInt(j.EndedAt.Unix(), 10),
		"Resource_List.nodect":    strconv.Itoa(j.Nodes),
		"Resource_List.walltime":  FormatWalltime(j.Walltime),
		"resources_used.walltime": FormatWalltime(j.UsedWalltime),
		"Exit_status":             strconv.Itoa(j.ExitStatus),
	}
	return Record{Time: j.EndedAt, Type: EventEnd, JobID: j.ID, Fields: f}
}

// QueueRecord renders the Q record for a job.
func QueueRecord(j Job) Record {
	return Record{Time: j.CreatedAt, Type: EventQueue, JobID: j.ID, Fields: map[string]string{
		"user":  j.User,
		"queue": j.Queue,
	}}
}

// StartRecord renders the S record for a job.
func StartRecord(j Job) Record {
	return Record{Time: j.StartedAt, Type: EventStart, JobID: j.ID, Fields: map[string]string{
		"user":                   j.User,
		"queue":                  j.Queue,
		"Resource_List.nodect":   strconv.Itoa(j.Nodes),
		"Resource_List.walltime": FormatWalltime(j.Walltime),
	}}
}

// Assembler folds a stream of accounting records into Job objects.
type Assembler struct {
	jobs map[string]*Job
	// interned canonicalizes the short repeated per-job strings (user,
	// account, queue) so the byte-view fast path copies each distinct value
	// out of its input buffer at most once.
	interned map[string]string
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{jobs: make(map[string]*Job), interned: make(map[string]string)}
}

// Add folds one record into the assembler. Unknown field values are ignored
// rather than treated as errors: field sets vary across WLM versions. Add
// delegates to AddScan (the byte-view fast path) so the two entry points
// share one fold implementation.
func (a *Assembler) Add(r Record) error {
	return a.AddScan(scanFromRecord(r))
}

// CompareJobs is the output order of jobs: start time, then ID. IDs are
// unique per assembler, so the order is total.
func CompareJobs(a, b Job) int { return compareJobs(&a, &b) }

// compareJobs is CompareJobs without copying the jobs.
func compareJobs(a, b *Job) int {
	if c := a.StartedAt.Compare(b.StartedAt); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

// Jobs returns the assembled jobs in CompareJobs order.
func (a *Assembler) Jobs() []Job {
	out := make([]Job, 0, len(a.jobs))
	for _, j := range a.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool { return compareJobs(&out[i], &out[k]) < 0 })
	return out
}

// Job returns the assembled job with the given ID, if any record named it.
func (a *Assembler) Job(id string) (Job, bool) {
	j := a.jobs[id]
	if j == nil {
		return Job{}, false
	}
	return *j, true
}

// Len returns the number of distinct jobs seen.
func (a *Assembler) Len() int { return len(a.jobs) }

// Writer emits accounting records.
type Writer struct {
	w   *bufio.Writer
	err error
	n   int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one record.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.WriteString(FormatRecord(r)); err != nil {
		w.err = err
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Scanner streams records from an accounting archive. In lenient mode (the
// NewScanner default) malformed lines are skipped and accounted — per-kind
// counters plus first-N provenance samples; in strict mode the scan stops
// at the first malformed line and Err returns the typed *parse.Error with
// its line number.
type Scanner struct {
	lr     *parse.LineReader
	loc    *time.Location
	mode   parse.Mode
	rec    Record
	lineNo int
	stats  parse.LineStats
	err    error
}

// NewScanner wraps r in lenient mode; timestamps are interpreted in loc
// (UTC if nil).
func NewScanner(r io.Reader, loc *time.Location) *Scanner {
	return NewScannerMode(r, loc, parse.Lenient)
}

// NewScannerMode wraps r with an explicit malformed-line policy.
func NewScannerMode(r io.Reader, loc *time.Location, mode parse.Mode) *Scanner {
	if loc == nil {
		loc = time.UTC
	}
	return &Scanner{lr: parse.NewLineReader(r), loc: loc, mode: mode}
}

// Scan advances to the next well-formed record. It returns false at end of
// input, on a read error, or (strict mode) at the first malformed line.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for {
		text, no, ok := s.lr.Next()
		if !ok {
			s.err = s.lr.Err()
			return false
		}
		rec, skip, perr := CheckLine(text, s.loc)
		if skip {
			continue
		}
		if perr != nil {
			perr.Line = no
			if s.mode == parse.Strict {
				s.err = perr
				return false
			}
			s.stats.Record(perr)
			continue
		}
		s.rec, s.lineNo = rec, no
		return true
	}
}

// Record returns the most recently scanned record.
func (s *Scanner) Record() Record { return s.rec }

// LineNo returns the 1-based archive line number of the most recently
// scanned record.
func (s *Scanner) LineNo() int { return s.lineNo }

// Malformed returns the number of skipped lines (lenient mode).
func (s *Scanner) Malformed() int { return s.stats.Malformed() }

// Stats returns the malformed-line accounting of the scan so far.
func (s *Scanner) Stats() parse.LineStats { return s.stats }

// Err returns the first read error, if any; in strict mode the first
// malformed line surfaces here as a *parse.Error.
func (s *Scanner) Err() error { return s.err }
