// Package wlm models the workload-manager (Torque/Moab-style) job accounting
// log: the per-job queue/start/end records from which the analysis counts
// batch jobs and reads each job's requested and consumed walltime. The
// writer renders the full records the generator simulates. The wire format
// follows the PBS/Torque accounting-record convention:
//
//	04/03/2013 12:00:00;E;123456.bw;user=alice queue=normal ctime=1364996400 ... Exit_status=0
//
// i.e. a timestamp, a record-type letter, the job ID, and a space-separated
// key=value field list, all joined by semicolons.
package wlm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ArchiveFile is the accounting log's name inside an archive directory.
const ArchiveFile = "accounting.log"

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

// Job is what the analysis reads of one batch job: its ID and the
// requested and consumed walltimes, from which correlate tells a walltime
// kill apart from a user or system failure.
type Job struct {
	ID string
	// Walltime is the requested wall-clock limit (Resource_List.walltime).
	Walltime time.Duration
	// UsedWalltime is the consumed wall clock (resources_used.walltime).
	UsedWalltime time.Duration
}

// FullJob is a batch job with every field the accounting writer renders:
// the generator's record, from which QueueRecord, StartRecord and EndRecord
// build the wire records. Ingestion keeps only the Job inside it.
type FullJob struct {
	Job
	User      string
	Account   string
	Queue     string
	CreatedAt time.Time // ctime
	StartedAt time.Time // start
	EndedAt   time.Time // end
	// Nodes is the requested node count (Resource_List.nodect).
	Nodes int
	// ExitStatus is the batch exit status; by Torque convention negative
	// values denote jobs killed by the server (e.g. -11 for node failure)
	// and values >= 256 indicate death by signal (status - 256).
	ExitStatus int
}

// FormatWalltime renders d in the HH:MM:SS accounting convention (hours may
// exceed 24).
func FormatWalltime(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	return fmt.Sprintf("%02d:%02d:%02d", total/3600, (total/60)%60, total%60)
}

// EndRecord renders the canonical E record for a completed job.
func EndRecord(j FullJob) Record {
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
func QueueRecord(j FullJob) Record {
	return Record{Time: j.CreatedAt, Type: EventQueue, JobID: j.ID, Fields: map[string]string{
		"user":  j.User,
		"queue": j.Queue,
	}}
}

// StartRecord renders the S record for a job.
func StartRecord(j FullJob) Record {
	return Record{Time: j.StartedAt, Type: EventStart, JobID: j.ID, Fields: map[string]string{
		"user":                   j.User,
		"queue":                  j.Queue,
		"Resource_List.nodect":   strconv.Itoa(j.Nodes),
		"Resource_List.walltime": FormatWalltime(j.Walltime),
	}}
}

// Assembler folds a stream of accounting records into Jobs. It is the
// pipeline's one job table: the jobs in the order their first record
// arrived, with an index from job ID to position.
type Assembler struct {
	jobs  []Job
	index map[string]int
}

// NewAssembler returns an empty assembler.
func NewAssembler() *Assembler {
	return &Assembler{index: make(map[string]int)}
}

// Jobs returns the assembled jobs in the order their first record arrived.
// The slice is the assembler's own, not a copy: it is valid until the next
// AddScan, which may write its jobs in place.
func (a *Assembler) Jobs() []Job { return a.jobs }

// Job returns the assembled job with the given ID, if any record named it.
func (a *Assembler) Job(id string) (Job, bool) {
	i, ok := a.index[id]
	if !ok {
		return Job{}, false
	}
	return a.jobs[i], true
}

// Len returns the number of distinct jobs seen.
func (a *Assembler) Len() int { return len(a.jobs) }
