package main

import "time"

// span is one interval the harness recorded around its own work: a
// workload, a pass, an iteration or a call into the facade. Parent is the ID
// of the span that caused it (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay nothing for it.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its ID. Timestamps are wall-clock Unix
// nanoseconds so spans from child processes line up with the parent's.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, StartNs: time.Now().UnixNano()})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNs = time.Now().UnixNano()
}

// adopt appends a child process's spans under parent, renumbering them.
func (l *spanLog) adopt(child []span, parent int) {
	base := len(l.spans)
	for _, s := range child {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}
