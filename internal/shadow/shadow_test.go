package shadow

import (
	"math/rand"
	"sync"
	"testing"
)

const testChunks = 4

// requireZero reads every byte of m (materializing every chunk, so recycled
// spares are read too) and fails on the first non-zero one.
func requireZero(t *testing.T, m *Map, round int) {
	t.Helper()
	for i := uint64(0); i < testChunks*ChunkSize; i++ {
		if v := m.At(i); v != 0 {
			t.Fatalf("round %d: byte %d = %#x after Reset, want 0", round, i, v)
		}
	}
	if got := m.TouchedBytes(); got != testChunks*ChunkSize {
		t.Fatalf("round %d: TouchedBytes = %d after reading every chunk, want %d", round, got, testChunks*ChunkSize)
	}
	m.Reset()
	if got := m.TouchedBytes(); got != 0 {
		t.Fatalf("round %d: TouchedBytes = %d after Reset, want 0", round, got)
	}
}

// TestResetClearsWhatFillsWrote fills random spans — single bytes, spans
// ending at or crossing chunk boundaries — then checks Reset leaves every
// byte zero, whichever chunk a spare is recycled into.
func TestResetClearsWhatFillsWrote(t *testing.T) {
	var m Map
	m.Init(testChunks * ChunkSize)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		for k := 0; k < 10; k++ {
			var i uint64
			var n int64
			switch k % 3 {
			case 0: // one byte, often a chunk's first or last
				i = uint64(rng.Intn(testChunks))*ChunkSize + uint64(rng.Intn(2))*(ChunkSize-1)
				n = 1
			case 1: // a span ending exactly at a chunk boundary
				n = int64(rng.Intn(300) + 1)
				i = uint64(rng.Intn(testChunks-1)+1)*ChunkSize - uint64(n)
			default: // anywhere, possibly across boundaries
				n = int64(rng.Intn(3 * ChunkSize / 2))
				i = uint64(rng.Int63n(testChunks*ChunkSize - n))
			}
			m.Fill(i, n, byte(rng.Intn(255)+1))
		}
		if round%2 == 0 {
			m.Reset()
			requireZero(t, &m, round)
		} else {
			m.Reset()
		}
	}
}

// TestConcurrentFillsReset fills disjoint spans of the same chunks from
// several goroutines, as parallel-region threads do, then checks Reset
// clears all of them. Run with -race this also checks the written-range
// bookkeeping is race-free.
func TestConcurrentFillsReset(t *testing.T) {
	var m Map
	m.Init(testChunks * ChunkSize)
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < 64; k++ {
					// Worker w owns bytes 4j+w: every span is one byte, and
					// the workers' written ranges interleave.
					i := uint64((round*977+k*1021)%(testChunks*ChunkSize/4))*4 + uint64(w)
					m.Fill(i, 1, 0xA0+byte(w))
				}
			}(w)
		}
		wg.Wait()
		m.Reset()
		requireZero(t, &m, round)
	}
}
