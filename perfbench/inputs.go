package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"

	mwl "repro"
	"repro/internal/expt"
	"repro/internal/tgff"
)

// problem is one request input: the problem itself, its encoded request
// body, and its canonical hash, which identifies it across answers.
type problem struct {
	p    mwl.Problem
	body []byte
	key  string
	ops  int
}

// newProblem encodes and hashes a graph at latency constraint lambda.
func newProblem(g *mwl.Graph, lambda int) (problem, error) {
	p := mwl.Problem{Graph: g, Lambda: lambda}
	body, err := json.Marshal(p)
	if err != nil {
		return problem{}, fmt.Errorf("encoding problem: %w", err)
	}
	key, err := p.Hash()
	if err != nil {
		return problem{}, fmt.Errorf("hashing problem: %w", err)
	}
	return problem{p: p, body: body, key: key, ops: g.N()}, nil
}

// relaxed builds the problem for g at λ = expt.Lambda(λ_min, relax),
// the paper's way of setting a latency constraint.
func relaxed(g *mwl.Graph, relax float64) (problem, error) {
	lmin, err := mwl.MinLambda(g, mwl.DefaultLibrary())
	if err != nil {
		return problem{}, err
	}
	return newProblem(g, expt.Lambda(lmin, relax))
}

// mix derives an independent stream seed from the run seed, a stream
// tag and an index, so every input is a pure function of the run seed.
func mix(seed int64, tag, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(tag)*0xBF58476D1CE4E5B9 ^ uint64(i)*0x94D049BB133111EB
	x ^= x >> 31
	x *= 0xD6E8FEB86659FD39
	x ^= x >> 28
	return int64(x >> 1)
}

// problemSeq is a deterministic, lazily extended sequence of distinct
// problems: element i depends only on the generator and i, so a run
// that consumes more of it than another sees the same prefix. Safe for
// concurrent use.
type problemSeq struct {
	gen func(i int) (problem, error)

	mu   sync.Mutex
	list []*problem
	seen map[string]bool
	next int // generator index of the next candidate
}

func newProblemSeq(gen func(i int) (problem, error)) *problemSeq {
	return &problemSeq{gen: gen, seen: make(map[string]bool)}
}

// get returns element i, generating any missing prefix. Candidates
// whose hash repeats an earlier element are skipped, so every element
// is a distinct problem.
func (s *problemSeq) get(i int) (*problem, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.list) <= i {
		p, err := s.gen(s.next)
		s.next++
		if err != nil {
			return nil, err
		}
		if s.seen[p.key] {
			continue
		}
		s.seen[p.key] = true
		s.list = append(s.list, &p)
	}
	return s.list[i], nil
}

// fill generates the first n elements up front.
func (s *problemSeq) fill(n int) error {
	_, err := s.get(n - 1)
	return err
}

// exclude makes s skip every problem o has generated so far, so the
// two sequences share no problem.
func (s *problemSeq) exclude(o *problemSeq) {
	o.mu.Lock()
	defer o.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range o.seen {
		s.seen[k] = true
	}
}

// coldSizes are the cold-large graph sizes, cycled so every stretch of
// the sequence holds the same size mix; core.BatchMinOps (200) splits
// them into per-victim and batched refinement.
var coldSizes = []int{120, 140, 160, 180, 200, 220, 240, 260}

// coldSeq is the cold-large input: distinct tgff graphs at λ =
// expt.Lambda(λ_min, 0.2).
func coldSeq(seed int64) *problemSeq {
	return newProblemSeq(func(i int) (problem, error) {
		n := coldSizes[i%len(coldSizes)]
		g, err := tgff.Generate(tgff.Config{N: n, Seed: mix(seed, 1, i)})
		if err != nil {
			return problem{}, err
		}
		return relaxed(g, 0.2)
	})
}

// coldWarmup is the i-th problem that warms a cold-large server up;
// none is in the timed sequence, so the timed requests still all miss.
func coldWarmup(seed int64, i int) (problem, error) {
	g, err := tgff.Generate(tgff.Config{N: 100, Seed: mix(seed, 2, i)})
	if err != nil {
		return problem{}, err
	}
	return relaxed(g, 0.2)
}

// smallGraph draws the i-th paper-sized graph: a tgff graph of 4–24
// operations, or one of the paper's named kernels with seeded widths.
// The kind and size cycle with i, so every stretch of a sequence has the
// same mix whatever the seed.
func smallGraph(rnd *rand.Rand, i int) (*mwl.Graph, error) {
	widths := func(n, lo, hi int) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = lo + rnd.Intn(hi-lo+1)
		}
		return w
	}
	switch i % 8 {
	case 0:
		return mwl.Fig1Graph(), nil
	case 1:
		return mwl.FIRGraph(8+rnd.Intn(9), widths(3+rnd.Intn(8), 4, 16), 24+rnd.Intn(9))
	case 2:
		b := widths(3, 4, 12)
		a := widths(2, 8, 14)
		return mwl.BiquadCascadeGraph(1+rnd.Intn(2), 8+rnd.Intn(7), [3]int{b[0], b[1], b[2]}, [2]int{a[0], a[1]}, 24+rnd.Intn(9))
	case 3:
		return mwl.HornerGraph(8+rnd.Intn(9), widths(3+rnd.Intn(6), 4, 16), 24+rnd.Intn(9))
	default:
		return tgff.Generate(tgff.Config{N: 4 + i*11%21, Seed: rnd.Int63()})
	}
}

// smallSeq is a sequence of distinct paper-sized problems at a λ slack
// cycling through 0–40%. tag separates the hot pool from the never-seen
// stream.
func smallSeq(seed int64, tag int) *problemSeq {
	return newProblemSeq(func(i int) (problem, error) {
		rnd := rand.New(rand.NewSource(mix(seed, tag, i)))
		g, err := smallGraph(rnd, i)
		if err != nil {
			return problem{}, err
		}
		return relaxed(g, float64(i%5)/10)
	})
}

// mediumSeq is the cluster-dup input: distinct tgff graphs of 20–80
// operations, sizes cycling in a fixed order, at λ = expt.Lambda(λ_min,
// 0.2).
func mediumSeq(seed int64) *problemSeq {
	return newProblemSeq(func(i int) (problem, error) {
		g, err := tgff.Generate(tgff.Config{N: 20 + i*23%61, Seed: mix(seed, 5, i)})
		if err != nil {
			return problem{}, err
		}
		return relaxed(g, 0.2)
	})
}

// hotPick is one hot-small request: a pool problem, or (fresh) the
// next never-seen problem.
type hotPick struct {
	fresh bool
	idx   int // pool index, or ordinal in the never-seen stream
}

// hotMix is the hot-small request stream: Zipf-skewed popularity over a
// seeded ranking of the pool, with a fixed share of never-seen
// problems. Safe for concurrent use.
type hotMix struct {
	mu     sync.Mutex
	rnd    *rand.Rand
	zipf   *rand.Zipf
	rankOf []int // popularity rank → pool index
	fresh  int   // never-seen problems handed out so far
}

const (
	hotPoolSize   = 300  // distinct problems in the hot pool
	hotCacheCap   = 128  // mwld -cache-entries, below hotPoolSize
	hotFreshShare = 0.10 // share of requests that are never-seen problems
	hotZipfS      = 1.1  // Zipf exponent of pool popularity
)

func newHotMix(seed int64) *hotMix {
	rnd := rand.New(rand.NewSource(mix(seed, 6, 0)))
	return &hotMix{
		rnd:    rnd,
		zipf:   rand.NewZipf(rnd, hotZipfS, 1, hotPoolSize-1),
		rankOf: rnd.Perm(hotPoolSize),
	}
}

func (m *hotMix) next() hotPick {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.rnd.Float64() < hotFreshShare {
		m.fresh++
		return hotPick{fresh: true, idx: m.fresh - 1}
	}
	return hotPick{idx: m.rankOf[m.zipf.Uint64()]}
}
