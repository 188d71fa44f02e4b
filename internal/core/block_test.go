package core

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"logdiver/internal/alps"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
)

// The block parsers ingestion runs (parseSyslogBlock, parseApsysBlockBytes)
// are pinned here to references that feed the same per-line functions —
// syslogx.CheckLineBytes and taxonomy.ClassifyBytes, checkApsysLineBytes —
// from a plain bufio.Scanner loop, with the uncached topology lookup. What
// they pin is what core owns: the block split, line numbering, the stats
// merge, the strict stop and the host cache; the table tests below also pin
// what checkApsysLineBytes counts. The byte parsers themselves are pinned to
// their string references in their own packages. The fuzz targets in
// fuzz_test.go reuse the same references on arbitrary input.

// forEachLine calls fn with every line of data and its archive line number,
// numbering from firstLine; bufio.Scanner's ScanLines is the line split
// stream.ForEachLine is pinned to.
func forEachLine(data []byte, firstLine int, fn func(raw []byte, no int) error) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, parse.AbsMaxLineBytes)
	for no := firstLine; sc.Scan(); no++ {
		if err := fn(sc.Bytes(), no); err != nil {
			return err
		}
	}
	return sc.Err()
}

// refSyslogBlock is the line-loop reference of parseSyslogBlock.
func refSyslogBlock(data []byte, firstLine int, top *machine.Topology, cls *taxonomy.Classifier, mode parse.Mode) (sysChunk, error) {
	var c sysChunk
	err := forEachLine(data, firstLine, func(raw []byte, no int) error {
		l, skip, perr := syslogx.CheckLineBytes(raw)
		switch {
		case skip:
			return nil
		case perr != nil:
			perr.Line = no
			if mode == parse.Strict {
				return perr
			}
			c.stats.Record(perr)
			return nil
		}
		c.lines++
		cat, sev := cls.ClassifyBytes(l.Msg)
		if cat == taxonomy.Unclassified {
			c.unclassified++
			return nil
		}
		node := errlog.SystemWide
		if id, err := top.LookupString(string(l.Host)); err == nil {
			node = id
		}
		c.events = append(c.events, errlog.Event{Time: l.Time, Node: node, Cname: string(l.Host), Category: cat, Severity: sev, Message: string(l.Msg)})
		return nil
	})
	if err != nil {
		return sysChunk{}, err
	}
	return c, nil
}

// apsysFold is what one apsys block contributes to the pipeline: the
// counted lines, the malformed-line accounting, and — since the parsed
// messages matter only through the runs they pair into — the state of a
// lenient assembler the messages were added to.
type apsysFold struct {
	lines      int
	stats      parse.LineStats
	runs       []alps.AppRun
	open       int
	unmatched  int
	duplicates int
}

func foldOf(lines int, stats parse.LineStats, asm *alps.Assembler) apsysFold {
	runs := asm.Runs()
	for i := range runs {
		// Offset stamps parse into a fresh FixedZone each time; compare instants.
		runs[i].Start, runs[i].End = runs[i].Start.UTC(), runs[i].End.UTC()
	}
	return apsysFold{lines: lines, stats: stats, runs: runs, open: asm.Open(), unmatched: asm.Unmatched(), duplicates: asm.Duplicates()}
}

// refApsysBlock is the line-loop reference of parseApsysBlockBytes followed
// by the assembler fold of ingestApsys.
func refApsysBlock(data []byte, firstLine int, mode parse.Mode) (apsysFold, error) {
	asm := alps.NewAssembler()
	asm.SetLenient(true)
	var (
		lines int
		stats parse.LineStats
	)
	err := forEachLine(data, firstLine, func(raw []byte, no int) error {
		at, msg, counted, ok, perr := checkApsysLineBytes(raw, no)
		if counted {
			lines++
		}
		switch {
		case perr != nil && mode == parse.Strict:
			return perr
		case perr != nil:
			stats.Record(perr)
		case ok:
			return asm.AddView(at, msg)
		}
		return nil
	})
	if err != nil {
		return apsysFold{}, err
	}
	return foldOf(lines, stats, asm), nil
}

// gotApsysBlock runs the production block parser and folds its views.
func gotApsysBlock(data []byte, firstLine int, mode parse.Mode) (apsysFold, error) {
	c, err := parseApsysBlockBytes(stream.Block{Data: data, FirstLine: firstLine}, mode)
	if err != nil {
		return apsysFold{}, err
	}
	asm := alps.NewAssembler()
	asm.SetLenient(true)
	for _, m := range c.msgs {
		if err := asm.AddView(m.at, m.v); err != nil {
			return apsysFold{}, err
		}
	}
	return foldOf(c.lines, c.stats, asm), nil
}

// sameStrictError requires both sides to fail (or not) alike, with the same
// rendered text — kind, line number, reason and quoted line.
func sameStrictError(t testing.TB, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("strict disagreement: block %v, reference %v", got, want)
	}
	if want != nil && got.Error() != want.Error() {
		t.Fatalf("strict errors diverge:\n block     %v\n reference %v", got, want)
	}
}

func sameSysChunk(t testing.TB, got, want sysChunk) {
	t.Helper()
	if got.lines != want.lines || got.unclassified != want.unclassified {
		t.Fatalf("block (%d lines, %d unclassified) vs reference (%d lines, %d unclassified)",
			got.lines, got.unclassified, want.lines, want.unclassified)
	}
	if got.stats != want.stats {
		t.Fatalf("stats diverge:\n block     %+v\n reference %+v", got.stats, want.stats)
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("block yielded %d events, reference %d", len(got.events), len(want.events))
	}
	for i := range got.events {
		g, w := got.events[i], want.events[i]
		g.Time, w.Time = g.Time.UTC(), w.Time.UTC()
		if g != w {
			t.Fatalf("event %d diverges:\n block     %+v\n reference %+v", i, g, w)
		}
	}
}

func blockTestTopology(t testing.TB) *machine.Topology {
	t.Helper()
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// Every malformed-line class of the syslog layer, as one line each.
var syslogErrorCases = []struct {
	name string
	line string
	kind parse.Kind
}{
	{"truncated record", "2013-04-03T12:34:56.123456-05:00", parse.KindStructure},
	{"missing host", "2013-04-03T12:34:56.123456-05:00 ", parse.KindStructure},
	{"missing tag separator", "2013-04-03T12:34:56.123456-05:00 host no colon here", parse.KindStructure},
	{"bad timestamp", "99/99/99 host kernel: msg", parse.KindTimestamp},
	{"oversized line", "2013-04-03T12:34:56.123456-05:00 host kernel: " + strings.Repeat("x", parse.MaxLineBytes), parse.KindOversize},
	{"invalid utf8", "2013-04-03T12:34:56.123456-05:00 host kernel: \xff\xfe", parse.KindEncoding},
	{"nul byte", "2013-04-03T12:34:56.123456-05:00 host kernel: a\x00b", parse.KindEncoding},
}

// Well-formed syslog lines: canonical and offset stamps, node and service
// hosts, classified and unclassified bodies, an empty body, CRLF, blanks.
var syslogGoodLines = []string{
	"2013-04-03T12:34:57.000000Z c0-0c0s0n1 kernel: Machine Check Exception: corrected DRAM error on c0-0c0s0n1 bank 2 DIMM 1 syndrome 0x00a1",
	"2013-04-03T12:34:57.000000-05:00 c0-0c0s0n1 kernel: machine check",
	"2013-04-03T12:34:58.000001+00:00 smw xtnlrd: nothing any rule matches",
	"2013-04-03T12:34:59.000000Z sdb kernel:",
	"2013-04-03T12:34:59.500000+01:30 sdb xtevent: message: with: colons",
	"2013-04-03T12:35:00.000000Z c0-0c0s1n0 kernel: LustreError: 11-0: an error occurred while communicating\r",
	"", "   ",
}

// TestParseSyslogBlockMatchesScanner pins the syslog block parser to the
// bufio.Scanner reference for every error class in both modes — the bad line's kind
// and archive line number, with and without a block offset — and over one
// mixed block ending in an unterminated fragment.
func TestParseSyslogBlockMatchesScanner(t *testing.T) {
	top, cls := blockTestTopology(t), taxonomy.Default()
	check := func(t *testing.T, input string, firstLine int) (sysChunk, error) {
		t.Helper()
		block := stream.Block{Data: []byte(input), FirstLine: firstLine}
		got, err := parseSyslogBlock(block, top, cls, errlog.NewHostCache(), parse.Lenient)
		if err != nil {
			t.Fatalf("lenient block failed: %v", err)
		}
		want, err := refSyslogBlock(block.Data, firstLine, top, cls, parse.Lenient)
		if err != nil {
			t.Fatalf("lenient reference failed: %v", err)
		}
		sameSysChunk(t, got, want)
		_, gotErr := parseSyslogBlock(block, top, cls, errlog.NewHostCache(), parse.Strict)
		_, wantErr := refSyslogBlock(block.Data, firstLine, top, cls, parse.Strict)
		sameStrictError(t, gotErr, wantErr)
		return got, gotErr
	}
	for _, tc := range syslogErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			input := syslogGoodLines[0] + "\n" + tc.line + "\n"
			for _, firstLine := range []int{1, 50} {
				c, strictErr := check(t, input, firstLine)
				if c.lines != 1 || c.stats.Kinds.Count(tc.kind) != 1 || c.stats.Malformed() != 1 {
					t.Errorf("firstLine %d: %d lines, kind count %d, malformed %d; want 1, 1, 1",
						firstLine, c.lines, c.stats.Kinds.Count(tc.kind), c.stats.Malformed())
				}
				if s := c.stats.Samples.All(); len(s) != 1 || s[0].Line != firstLine+1 || s[0].Kind != tc.kind {
					t.Errorf("firstLine %d: sample %+v, want line %d kind %v", firstLine, s, firstLine+1, tc.kind)
				}
				var perr *parse.Error
				if !errors.As(strictErr, &perr) || perr.Kind != tc.kind || perr.Line != firstLine+1 {
					t.Errorf("firstLine %d: strict error %v, want kind %v line %d", firstLine, strictErr, tc.kind, firstLine+1)
				}
			}
		})
	}
	t.Run("mixed", func(t *testing.T) {
		var b strings.Builder
		for i, l := range syslogGoodLines {
			b.WriteString(l + "\n")
			if i < len(syslogErrorCases) {
				b.WriteString(syslogErrorCases[i].line + "\n")
			}
		}
		b.WriteString(syslogGoodLines[1]) // no trailing newline: final fragment
		c, _ := check(t, b.String(), 42)
		if len(c.events) == 0 || c.unclassified == 0 {
			t.Errorf("mixed block yielded %d events, %d unclassified; want both nonzero", len(c.events), c.unclassified)
		}
	})
}

// Well-formed apsys archive lines: placement records that pair into two
// runs, one left open, a duplicate Starting and an unmatched Finishing;
// chatter; a foreign tag; blanks.
var apsysGoodLines = []string{
	"2013-04-03T12:00:00.000000Z nid00005 apsys: apid=100, Starting, user=alice, batch_id=9.bw, cmd=a.out, width=16, num_nodes=1, node_list=5",
	"2013-04-03T12:00:01.000000-05:00 nid00005 apsys: apid=101, Starting, user=bob, batch_id=10.bw, cmd=b.out, width=64, num_nodes=3, node_list=7-8,12",
	"2013-04-03T12:00:02.000000Z nid00005 apsys: apid=104, Starting, user=bob, batch_id=10.bw, cmd=b.out, width=1, num_nodes=1, node_list=9",
	"2013-04-03T12:00:02.000000Z nid00005 apsys: apid=100, Starting, user=alice, batch_id=9.bw, cmd=a.out, width=16, num_nodes=1, node_list=5",
	"2013-04-03T12:00:03.000000Z nid00005 apsys: apid=100, Finishing, exit_code=1, signal=9, node_cnt=1",
	"2013-04-03T12:00:04.000000Z nid00005 apsys: apid=999, Finishing, exit_code=0, signal=0, node_cnt=1",
	"2013-04-03T12:00:05.000000Z nid00005 apsys: some chatter without an apid",
	"2013-04-03T12:00:06.000000Z nid00005 kernel: not an apsys line",
	"", "\t",
	"2013-04-03T18:00:07.000000Z nid00005 apsys: apid=101, Finishing, exit_code=0, signal=0, node_cnt=3",
}

// The message-layer error classes: well-formed syslog lines (they count
// toward ApsysLines, unlike syslogErrorCases) whose apsys body is malformed.
var apsysBadMessages = []string{
	"2013-04-03T12:00:07.000000Z nid00005 apsys: apid=bad, Starting",
	"2013-04-03T12:00:08.000000Z nid00005 apsys: apid=102, Starting, user=c, batch_id=1.bw, cmd=c, width=1, num_nodes=2, node_list=5",
	"2013-04-03T12:00:09.000000Z nid00005 apsys: apid=103, Finishing, exit_code=x, signal=0, node_cnt=1",
	"2013-04-03T12:00:10.000000Z nid00005 apsys: =v, Starting",
}

// TestParseApsysBlockMatchesLineParsers pins the apsys block parser to the
// bufio.Scanner reference over checkApsysLineBytes, over a clean block and
// one mixing both error layers, in both modes, with and without a block
// offset. Both blocks end in an unterminated fragment.
func TestParseApsysBlockMatchesLineParsers(t *testing.T) {
	clean := strings.Join(apsysGoodLines, "\n")
	var b strings.Builder
	for _, tc := range syslogErrorCases {
		b.WriteString(tc.line + "\n")
	}
	for i, l := range apsysGoodLines[:len(apsysGoodLines)-1] {
		b.WriteString(l + "\n")
		if i < len(apsysBadMessages) {
			b.WriteString(apsysBadMessages[i] + "\n")
		}
	}
	b.WriteString(apsysGoodLines[len(apsysGoodLines)-1])
	mixed := b.String()

	for _, firstLine := range []int{1, 42} {
		for _, input := range []string{clean, mixed} {
			got, err := gotApsysBlock([]byte(input), firstLine, parse.Lenient)
			if err != nil {
				t.Fatalf("lenient block failed: %v", err)
			}
			want, err := refApsysBlock([]byte(input), firstLine, parse.Lenient)
			if err != nil {
				t.Fatalf("lenient reference failed: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("firstLine %d: block diverges from the reference:\n block     %+v\n reference %+v", firstLine, got, want)
			}
			wantMalformed := 0
			if input == mixed {
				wantMalformed = len(syslogErrorCases) + len(apsysBadMessages)
			}
			if len(got.runs) != 2 || got.open != 1 || got.unmatched != 1 || got.duplicates != 1 || got.stats.Malformed() != wantMalformed {
				t.Errorf("firstLine %d: fold %+v, want 2 runs, 1 open, 1 unmatched, 1 duplicate, %d malformed", firstLine, got, wantMalformed)
			}

			_, gotErr := gotApsysBlock([]byte(input), firstLine, parse.Strict)
			_, wantErr := refApsysBlock([]byte(input), firstLine, parse.Strict)
			sameStrictError(t, gotErr, wantErr)
			var perr *parse.Error
			if input == clean && gotErr != nil {
				t.Errorf("firstLine %d: strict error %v on the clean block", firstLine, gotErr)
			}
			if input == mixed && (!errors.As(gotErr, &perr) || perr.Line != firstLine) {
				t.Errorf("firstLine %d: strict error %v, want a *parse.Error at line %d", firstLine, gotErr, firstLine)
			}
		}
	}
}
