package trace

import (
	"errors"
	"io"
	"math"
)

// Switches logs where one execution's references alternate between two
// recordings. A machine that records its high-priority references apart
// from the rest, in a NIC recording, appends to the compute recording
// first; each entry is the length of the recording a run of appends
// leaves when the appends move to the other. Merge reads the two back,
// by the log, as the one stream a single recording would have held.
type Switches struct{ ends []int }

// Switch logs that the appends leave rec for the other recording.
func (s *Switches) Switch(rec *Recording) { s.ends = append(s.ends, rec.Len()) }

// Merge returns a Source over the stream that rec and nic were split
// from: the first run of log from rec, the next from nic, and so on,
// the last run to the end of its recording. Neither recording may grow
// while the Source is in use. A log that runs past its recording, or
// that leaves references of the other unread, is a source error.
func Merge(rec, nic *Recording, log *Switches) Source {
	return &merged{sides: [2]side{{chunks: rec.chunks()}, {chunks: nic.chunks()}}, ends: log.ends}
}

var errSwitches = errors.New("trace: switch log does not match its recordings")

// merged is Merge's Source. Run i reads sides[i&1].
type merged struct {
	sides [2]side
	ends  []int
	run   int
}

// side walks one recording's chunks a run at a time.
type side struct {
	chunks [][]uint32
	off    int // references of chunks[0] already taken
	pos    int // references taken in all
}

// take returns up to n of the side's next references from one chunk,
// or nil when the side is exhausted.
func (s *side) take(n int) []uint32 {
	if len(s.chunks) == 0 {
		return nil
	}
	c := s.chunks[0][s.off:]
	if n < len(c) {
		c = c[:n]
		s.off += n
	} else {
		s.chunks, s.off = s.chunks[1:], 0
	}
	s.pos += len(c)
	return c
}

// Next returns the current run's next references, up to the end of the
// run or of the chunk that holds them.
func (m *merged) Next() ([]uint32, error) {
	for ; m.run < len(m.ends); m.run++ {
		s := &m.sides[m.run&1]
		n := m.ends[m.run] - s.pos
		if n < 0 {
			return nil, errSwitches
		}
		if n > 0 {
			if c := s.take(n); c != nil {
				return c, nil
			}
			return nil, errSwitches
		}
	}
	if c := m.sides[m.run&1].take(math.MaxInt); c != nil {
		return c, nil
	}
	if len(m.sides[(m.run+1)&1].chunks) != 0 {
		return nil, errSwitches
	}
	return nil, io.EOF
}

// split feeds about a chunk's worth of the merged stream into sp.
func (m *merged) split(sp *splitter) error {
	for n := 0; n < chunkWords; {
		c, err := m.Next()
		if err != nil {
			return err
		}
		sp.packed(c)
		n += len(c)
	}
	return nil
}
