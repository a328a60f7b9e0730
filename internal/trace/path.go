package trace

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PathCount is one distinct phase path and the number of requests that
// took it.
type PathCount struct {
	Phases []Subsystem
	N      int
	key    string // the path's key in PathCounter.index
	name   string // fmt.Sprint(Phases), rendered on first use
}

// sprint returns the path's fmt.Sprint rendering, rendering it once.
func (p *PathCount) sprint() string {
	if p.name == "" {
		p.name = fmt.Sprint(p.Phases)
	}
	return p.name
}

// PathCounter tallies requests by phase path (the subsystem sequence of
// their spans). Paths are keyed by one byte per span, built in a reused
// buffer, so counting a request whose path was seen before allocates
// nothing. The zero value is ready to use.
type PathCounter struct {
	index map[string]int // path key -> position in paths
	paths []PathCount
	buf   []byte
}

// key encodes r's phase path into the reused buffer: one byte per span
// subsystem, with any value outside [0, 255) escaped as 255 plus its
// varint so that distinct paths never share a key.
func (c *PathCounter) key(r Request) []byte {
	c.buf = c.buf[:0]
	for i := range r.Spans {
		s := r.Spans[i].Subsystem
		if s >= 0 && s < 255 {
			c.buf = append(c.buf, byte(s))
		} else {
			c.buf = binary.AppendVarint(append(c.buf, 255), int64(s))
		}
	}
	return c.buf
}

// Add counts r's phase path.
func (c *PathCounter) Add(r Request) {
	k := c.key(r)
	if i, ok := c.index[string(k)]; ok {
		c.paths[i].N++
		return
	}
	if c.index == nil {
		c.index = make(map[string]int)
	}
	key := string(k)
	c.index[key] = len(c.paths)
	c.paths = append(c.paths, PathCount{Phases: r.Phases(), N: 1, key: key})
}

// Ranked orders the counted paths most frequent first and returns them.
// Paths of equal count are ordered by their fmt.Sprint rendering, which is
// rendered once per distinct path and only when a tie needs it. The
// returned slice is the counter's own; Index refers to its positions.
func (c *PathCounter) Ranked() []PathCount {
	sort.Slice(c.paths, func(a, b int) bool {
		pa, pb := &c.paths[a], &c.paths[b]
		if pa.N != pb.N {
			return pa.N > pb.N
		}
		return pa.sprint() < pb.sprint()
	})
	for i, p := range c.paths {
		c.index[p.key] = i
	}
	return c.paths
}

// Index returns the position of r's phase path among the counted paths:
// its rank once Ranked has been called, else its first-seen order. It
// reports false for a path that was never counted.
func (c *PathCounter) Index(r Request) (int, bool) {
	k := c.key(r)
	i, ok := c.index[string(k)]
	return i, ok
}
