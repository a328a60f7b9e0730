package trace

import "testing"

func TestSpanArenaTake(t *testing.T) {
	var a SpanArena
	s := a.Take(4)
	if len(s) != 0 || cap(s) != 4 {
		t.Fatalf("Take(4) = len %d cap %d, want 0/4", len(s), cap(s))
	}
	if a.Take(0) != nil || a.Take(-1) != nil {
		t.Fatal("Take of non-positive n should be nil")
	}
}

// TestSpanArenaIsolation checks that appending past a taken slice's
// capacity cannot clobber a neighboring request's spans.
func TestSpanArenaIsolation(t *testing.T) {
	var a SpanArena
	first := a.Take(2)
	first = append(first, Span{Bank: 1}, Span{Bank: 2})
	second := a.Take(2)
	second = append(second, Span{Bank: 3}, Span{Bank: 4})
	// Overflow the first slice: the append must copy out of the arena.
	first = append(first, Span{Bank: 99})
	if second[0].Bank != 3 || second[1].Bank != 4 {
		t.Fatalf("overflowing one slice clobbered its neighbor: %+v", second)
	}
	if first[2].Bank != 99 {
		t.Fatalf("overflow append lost the new span: %+v", first)
	}
}

// TestSpanArenaChunkRollover checks that slices stay valid and zeroed
// across chunk boundaries, including requests larger than a whole chunk.
func TestSpanArenaChunkRollover(t *testing.T) {
	var a SpanArena
	var taken [][]Span
	for i := 0; i < 3*arenaChunkSpans/5; i++ {
		s := a.Take(5)
		for j := 0; j < 5; j++ {
			if cap(s) != 5 {
				t.Fatalf("take %d: cap %d, want 5", i, cap(s))
			}
			s = append(s, Span{Bank: i})
		}
		taken = append(taken, s)
	}
	big := a.Take(2 * arenaChunkSpans)
	if cap(big) != 2*arenaChunkSpans {
		t.Fatalf("oversized take has cap %d", cap(big))
	}
	for i, s := range taken {
		for j := range s {
			if s[j].Bank != i {
				t.Fatalf("take %d span %d has bank %d", i, j, s[j].Bank)
			}
		}
	}
}

// TestSpanArenaReserveSlab checks the synthesis reservation policy: each
// slab of requests gets one reservation of slab × maxSpans spans (the last
// slab is partial), and Take never allocates inside a slab.
func TestSpanArenaReserveSlab(t *testing.T) {
	const maxSpans = 3
	n := synthSlabRequests + 10
	var a SpanArena
	for i := 0; i < n; i++ {
		before := cap(a.chunk)
		a.ReserveSlab(i, n, maxSpans)
		if i%synthSlabRequests == 0 {
			if want := maxSpans * min(n-i, synthSlabRequests); cap(a.chunk) != want {
				t.Fatalf("request %d: reserved %d spans, want %d", i, cap(a.chunk), want)
			}
		} else if cap(a.chunk) != before {
			t.Fatalf("request %d: reserved inside a slab", i)
		}
		reserved := cap(a.chunk)
		a.Take(maxSpans)
		if cap(a.chunk) != reserved {
			t.Fatalf("request %d: Take allocated inside a slab", i)
		}
	}
}
