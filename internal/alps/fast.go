// Byte-oriented apsys message parser, the one ingestion runs.
// ParseMessageBytes parses a body from a byte view — ", "-separated
// segments, first-'=' key/value cut, last-wins on duplicate keys and
// markers, empty-key rejection — without building a field map. The string
// reference it is pinned to (ParseMessage, ParseNIDList, Assembler.Add)
// lives in reference_test.go, where the differential tests and fuzzers
// compare the two.

package alps

import (
	"bytes"
	"fmt"
	"time"

	"logdiver/internal/machine"
	"logdiver/internal/parse"
)

// MessageView is one parsed apsys message body with byte views into the
// caller's buffer (User, JobID, Cmd). Views are valid only as long as the
// underlying buffer; AddView copies what it retains. Placement is freshly
// allocated and owned by the receiver, which may keep it.
type MessageView struct {
	Kind      MessageKind
	ApID      uint64
	User      []byte
	JobID     []byte
	Cmd       []byte
	Width     int
	Placement machine.Placement
	ExitCode  int
	Signal    int
	NodeCnt   int
}

// ParseMessageBytes parses an apsys message body from a byte view. Bodies
// that are valid apsys output but not Starting/Finishing records (e.g. error
// chatter without an apid) yield KindUnknown with a nil error so callers can
// skip them cheaply. It is pure and safe to call from concurrent
// goroutines. It allocates only for the placement of a Starting record, one
// slice of its ranges, and for error construction.
func ParseMessageBytes(body []byte) (MessageView, *parse.Error) {
	var m MessageView
	// Walk the ", "-separated segments, retaining the LAST occurrence of
	// each known key and of the bare-word marker.
	var apid, user, batchID, cmd, width, numNodes, nodeList, exitCode, signal, nodeCnt, marker []byte
	var haveApid, haveWidth, haveNumNodes, haveExit, haveSignal, haveNodeCnt bool
	for start := 0; start <= len(body); {
		var part []byte
		if i := bytes.Index(body[start:], sepCommaSpace); i >= 0 {
			part = body[start : start+i]
			start += i + 2
		} else {
			part = body[start:]
			start = len(body) + 1
		}
		part = bytes.TrimSpace(part)
		if len(part) == 0 {
			continue
		}
		if eq := bytes.IndexByte(part, '='); eq >= 0 {
			if eq == 0 {
				return MessageView{}, parse.Errorf(parse.KindStructure, parse.SampleText(body), "alps: empty key")
			}
			k, v := part[:eq], part[eq+1:]
			switch {
			case bytes.Equal(k, keyApid):
				apid, haveApid = v, true
			case bytes.Equal(k, keyApsysUser):
				user = v
			case bytes.Equal(k, keyBatchID):
				batchID = v
			case bytes.Equal(k, keyCmd):
				cmd = v
			case bytes.Equal(k, keyWidth):
				width, haveWidth = v, true
			case bytes.Equal(k, keyNumNodes):
				numNodes, haveNumNodes = v, true
			case bytes.Equal(k, keyNodeList):
				nodeList = v
			case bytes.Equal(k, keyExitCode):
				exitCode, haveExit = v, true
			case bytes.Equal(k, keySignal):
				signal, haveSignal = v, true
			case bytes.Equal(k, keyNodeCnt):
				nodeCnt, haveNodeCnt = v, true
			}
		} else {
			marker = part
		}
	}
	if !haveApid {
		return m, nil // apsys chatter without an apid: not a placement record
	}
	id, ok := parse.ParseUint64(apid)
	if !ok {
		return MessageView{}, parse.Errorf(parse.KindField, parse.SampleText(body), "alps: bad apid %q", apid)
	}
	m.ApID = id
	switch {
	case bytes.Equal(marker, markStarting):
		m.Kind = KindStarting
		m.User = user
		m.JobID = batchID
		m.Cmd = cmd
		if m.Width, ok = atoiView(width, haveWidth); !ok {
			return MessageView{}, atoiErr(width, haveWidth, "width", body)
		}
		nn, ok := atoiView(numNodes, haveNumNodes)
		if !ok {
			return MessageView{}, atoiErr(numNodes, haveNumNodes, "num_nodes", body)
		}
		p, err := ParseNIDRangesBytes(nodeList)
		if err != nil {
			return MessageView{}, parse.Errorf(parse.KindField, parse.SampleText(body), "alps: bad node_list: %s", err.Error())
		}
		m.Placement = p
		if n := p.Len(); n != nn {
			return MessageView{}, parse.Errorf(parse.KindStructure, parse.SampleText(body), "alps: apid %d claims %d nodes but lists %d", id, nn, n)
		}
	case bytes.Equal(marker, markFinishing):
		m.Kind = KindFinishing
		if m.ExitCode, ok = atoiView(exitCode, haveExit); !ok {
			return MessageView{}, atoiErr(exitCode, haveExit, "exit_code", body)
		}
		if m.Signal, ok = atoiView(signal, haveSignal); !ok {
			return MessageView{}, atoiErr(signal, haveSignal, "signal", body)
		}
		if m.NodeCnt, ok = atoiView(nodeCnt, haveNodeCnt); !ok {
			return MessageView{}, atoiErr(nodeCnt, haveNodeCnt, "node_cnt", body)
		}
	default:
		m.Kind = KindUnknown
	}
	return m, nil
}

// Known apsys message tokens.
var (
	sepCommaSpace = []byte(", ")
	markStarting  = []byte("Starting")
	markFinishing = []byte("Finishing")
	keyApid       = []byte("apid")
	keyApsysUser  = []byte("user")
	keyBatchID    = []byte("batch_id")
	keyCmd        = []byte("cmd")
	keyWidth      = []byte("width")
	keyNumNodes   = []byte("num_nodes")
	keyNodeList   = []byte("node_list")
	keyExitCode   = []byte("exit_code")
	keySignal     = []byte("signal")
	keyNodeCnt    = []byte("node_cnt")
)

// atoiView parses a required numeric field view; ok is false when the field
// is absent or non-numeric (use atoiErr for the matching typed error).
func atoiView(v []byte, have bool) (int, bool) {
	if !have {
		return 0, false
	}
	return parse.Atoi(v)
}

// atoiErr builds the typed error of a missing or non-numeric required
// field.
func atoiErr(v []byte, have bool, key string, body []byte) *parse.Error {
	if !have {
		return parse.Errorf(parse.KindField, parse.SampleText(body), "alps: missing field %q", key)
	}
	return parse.Errorf(parse.KindField, parse.SampleText(body), "alps: field %s=%q not a number", key, v)
}

// AddView folds one timestamped apsys message view into the assembler.
// Retained strings (user, job ID, command) are copied out of the caller's
// buffer through the assembler's intern table.
func (a *Assembler) AddView(at time.Time, v MessageView) error {
	switch v.Kind {
	case KindStarting:
		if _, dup := a.open[v.ApID]; dup {
			if a.lenient {
				a.duplicates++
				return nil
			}
			return fmt.Errorf("alps: duplicate Starting for apid %d", v.ApID)
		}
		a.open[v.ApID] = AppRun{
			ApID:      v.ApID,
			JobID:     a.intern(v.JobID),
			User:      a.intern(v.User),
			Cmd:       a.intern(v.Cmd),
			Width:     v.Width,
			Placement: v.Placement,
			Start:     at,
		}
	case KindFinishing:
		return a.finish(at, v.ApID, v.ExitCode, v.Signal)
	case KindUnknown:
		// apsys chatter; ignore.
	default:
		return fmt.Errorf("alps: unknown message kind %d", v.Kind)
	}
	return nil
}

// intern returns a canonical string for b, copying it at most once.
func (a *Assembler) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := a.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	a.interned[s] = s
	return s
}
