// Package syslogx reads and writes the syslog-style line format used by the
// synthesized system logs. The format mirrors the ISO-timestamped logs
// produced by the Cray Lightweight Log Manager (LLM):
//
//	2013-04-03T12:34:56.123456-05:00 c1-3c2s7n1 kernel: <message body>
//
// i.e. an RFC 3339 timestamp with microsecond precision, the originating
// host (a node cname or a service host such as "smw" or "sdb"), a program
// tag terminated by a colon, and the free-form message body.
package syslogx

import (
	"strings"
	"time"
)

// Line is one syslog record with owned strings, as Format writes it
// (ingestion parses into LineView instead).
type Line struct {
	Time time.Time
	// Host is the originating component: a node cname or service host name.
	Host string
	// Tag is the program tag without the trailing colon (e.g. "kernel").
	Tag string
	// Message is the free-form body.
	Message string
}

// ArchiveFile is the system error log's name inside an archive directory.
const ArchiveFile = "syslog.log"

// timeLayout is RFC 3339 with microseconds, as written by LLM.
const timeLayout = "2006-01-02T15:04:05.000000Z07:00"

// Format renders the line in wire format without a trailing newline.
func Format(l Line) string {
	var b strings.Builder
	b.Grow(len(l.Host) + len(l.Tag) + len(l.Message) + 40)
	b.WriteString(l.Time.Format(timeLayout))
	b.WriteByte(' ')
	b.WriteString(l.Host)
	b.WriteByte(' ')
	b.WriteString(l.Tag)
	b.WriteString(": ")
	b.WriteString(l.Message)
	return b.String()
}
