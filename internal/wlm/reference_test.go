package wlm

// The string-form reference of the accounting parser and its fold. No
// product code calls it: it is the independent, map-backed implementation
// the byte parser and AddScan in scan.go are pinned to
// (TestCheckLineBytesMatchesCheckLine, FuzzParseRecord,
// TestScanBlockModeMatchesScanner, TestAddScanMatchesAdd,
// FuzzParseAccounting).

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"time"

	"logdiver/internal/parse"
)

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

// CheckLine is the string-form reference of CheckLineBytes: blank lines are
// skipped silently (skip == true), lines failing the shared encoding/oversize
// checks or ParseRecord return a typed *parse.Error, and everything else
// yields the parsed Record. The shared checks are parse.CheckLineBytes, which
// package parse pins to its own string reference.
func CheckLine(text string, loc *time.Location) (r Record, skip bool, perr *parse.Error) {
	if strings.TrimSpace(text) == "" {
		return Record{}, true, nil
	}
	if e := parse.CheckLineBytes([]byte(text)); e != nil {
		return Record{}, false, e
	}
	r, err := ParseRecord(text, loc)
	if err != nil {
		return Record{}, false, err.(*parse.Error)
	}
	return r, false, nil
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

// Add is the reference fold of one map-backed Record, written apart from
// AddScan: the job joins the table on first sight, and each walltime the
// record carries in a form ParseWalltime accepts overwrites the job's. Other
// field values are ignored rather than treated as errors: field sets vary
// across WLM versions.
func (a *Assembler) Add(r Record) error {
	if r.JobID == "" {
		return fmt.Errorf("wlm: record with empty job id")
	}
	i, ok := a.index[r.JobID]
	if !ok {
		i = len(a.jobs)
		a.jobs = append(a.jobs, Job{ID: r.JobID})
		a.index[r.JobID] = i
	}
	if d, err := ParseWalltime(r.Fields["Resource_List.walltime"]); err == nil {
		a.jobs[i].Walltime = d
	}
	if d, err := ParseWalltime(r.Fields["resources_used.walltime"]); err == nil {
		a.jobs[i].UsedWalltime = d
	}
	return nil
}

// scanFromRecord is the ScanRecord a map-backed Record should scan to: its
// job ID and each walltime that ParseWalltime accepts.
func scanFromRecord(r Record) ScanRecord {
	s := ScanRecord{JobID: []byte(r.JobID)}
	if d, err := ParseWalltime(r.Fields["Resource_List.walltime"]); err == nil {
		s.Walltime, s.Has = d, s.Has|HasWalltime
	}
	if d, err := ParseWalltime(r.Fields["resources_used.walltime"]); err == nil {
		s.UsedWalltime, s.Has = d, s.Has|HasUsedWalltime
	}
	return s
}

// refScan is the reference scan of an accounting archive: a bufio.Scanner
// loop over CheckLine, numbering lines from firstLine, with the malformed-line
// policy of ScanBlockMode — lenient accounts each malformed line in stats,
// strict stops at the first one and returns it.
func refScan(text string, loc *time.Location, firstLine int, mode parse.Mode) (recs []Record, stats parse.LineStats, err error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, parse.AbsMaxLineBytes)
	for no := firstLine; sc.Scan(); no++ {
		rec, skip, perr := CheckLine(sc.Text(), loc)
		switch {
		case skip:
		case perr != nil:
			perr.Line = no
			if mode == parse.Strict {
				return nil, parse.LineStats{}, perr
			}
			stats.Record(perr)
		default:
			recs = append(recs, rec)
		}
	}
	return recs, stats, sc.Err()
}
