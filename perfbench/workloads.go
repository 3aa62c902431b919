package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
)

const (
	coldFill      = 160   // cold-large: problems generated during set-up
	coldWarm      = 4     // cold-large: warm-up problems, outside the timed sequence
	coldAreaCount = 48    // cold-large: first problems whose area sums into area_total
	hotFreshFill  = 5000  // hot-small: never-seen problems generated during set-up
	latencyLimit  = 20.0  // hot-small: p99 limit in ms for a rate to count
	hotLowRate    = 200   // hot-small: low fixed rate, requests/s
	hotRefRate    = 400   // hot-small: fixed reference rate, requests/s; under half the slowest saturated throughput seen on the reference machine (about 1,100/s)
	dupFill       = 1024  // cluster-dup: problems generated during set-up
	dupAreaCount  = 64    // cluster-dup: first problems whose area sums into area_total
	dupNewShare   = 0.125 // cluster-dup: share of rounds that introduce a new problem
	dupReplicas   = 3     // cluster-dup: mwld replicas
)

// ---- cold-large ----

func (r *runner) coldLarge() error {
	var seq *problemSeq
	st, err := r.setUp(func(int) (*stage, error) {
		addrs, err := freeAddrs(1)
		if err != nil {
			return nil, err
		}
		s, err := startServer(r.cfg.mwld, addrs[0], serverProcs(r.cfg.workload), "-workers", "2")
		if err != nil {
			return nil, err
		}
		st := &stage{servers: fleet{s}, conns: []*conn{newConn(), newConn()}}
		if err := st.servers.ready(); err != nil {
			return st, err
		}
		seq = coldSeq(r.cfg.seed)
		if err := seq.fill(coldFill); err != nil {
			return st, err
		}
		var failed atomic.Bool
		forEach(st.conns, coldWarm, func(c *conn, i int) {
			w, err := coldWarmup(r.cfg.seed, i)
			if err != nil || !r.send(c, s.addr, &w).ok {
				failed.Store(true)
			}
		})
		if failed.Load() {
			return st, errors.New("warm-up request failed")
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	addr := st.servers[0].addr
	var next atomic.Int64
	load := func(d time.Duration) []sample {
		return closedLoop(st.conns, time.Now().Add(d), func(_ int, c *conn) sample {
			i := int(next.Add(1) - 1)
			p, err := seq.get(i)
			if err != nil {
				panic(err) // generation is deterministic and was exercised in set-up
			}
			return r.send(c, addr, p)
		})
	}
	return r.execute(plan{
		st:      st,
		segment: load,
		main: func() (*window, []sample, error) {
			w, err := r.measure(st.servers, func() []sample { return load(r.T()) })
			if err != nil {
				return nil, nil, err
			}
			rate := closedRate(w.samples, w.t0)
			r.res.set("throughput_rps", rate)
			r.res.notes["throughput_rps"] = fmt.Sprintf("%d answers, closed loop, 2 connections", len(w.samples))
			r.res.set("capacity_rps", rate)
			r.res.notes["capacity_rps"] = "closed loop at saturation: equals throughput_rps"
			r.serverCPU(w, w.t0, w.t1, false)
			return w, w.samples, nil
		},
		areaSeq:   seq,
		areaCount: coldAreaCount,
	})
}

// ---- hot-small ----

func (r *runner) hotSmall() error {
	var pool, fresh *problemSeq
	var mix *hotMix
	st, err := r.setUp(func(attempt int) (*stage, error) {
		addrs, err := freeAddrs(1)
		if err != nil {
			return nil, err
		}
		s, err := startServer(r.cfg.mwld, addrs[0], serverProcs(r.cfg.workload),
			"-workers", "2",
			"-cache-entries", strconv.Itoa(hotCacheCap),
			"-store-dir", filepath.Join(r.dir, "store-"+strconv.Itoa(attempt)))
		if err != nil {
			return nil, err
		}
		st := &stage{servers: fleet{s}, conns: []*conn{newConn(), newConn()}}
		if err := st.servers.ready(); err != nil {
			return st, err
		}
		pool = smallSeq(r.cfg.seed, 3)
		if err := pool.fill(hotPoolSize); err != nil {
			return st, err
		}
		fresh = smallSeq(r.cfg.seed, 4)
		fresh.exclude(pool)
		if err := fresh.fill(hotFreshFill); err != nil {
			return st, err
		}
		mix = newHotMix(r.cfg.seed)
		// Warm-up: every pool problem once, so the store holds the pool
		// and the LRU its most recent hotCacheCap entries.
		var failed atomic.Bool
		forEach(st.conns, hotPoolSize, func(c *conn, i int) {
			p, _ := pool.get(i) // filled above
			if !r.send(c, s.addr, p).ok {
				failed.Store(true)
			}
		})
		if failed.Load() {
			return st, errors.New("warm-up request failed")
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	addr := st.servers[0].addr
	pick := func() any {
		h := mix.next()
		seq := pool
		if h.fresh {
			seq = fresh
		}
		p, err := seq.get(h.idx)
		if err != nil {
			panic(err) // generation is deterministic and was exercised in set-up
		}
		return p
	}
	send := func(c *conn, job any) sample { return r.send(c, addr, job.(*problem)) }
	T := r.T()
	return r.execute(plan{
		st: st,
		segment: func(d time.Duration) []sample {
			return openLoop(st.conns, hotRefRate, d, pick, send).samples
		},
		main: func() (*window, []sample, error) {
			var satT0, satT1 time.Time
			var low, ref openResult
			var steps []openResult
			capacity := 0.0
			w, err := r.measure(st.servers, func() []sample {
				// Saturation: the closed-loop throughput of the hot mix.
				satT0 = time.Now()
				all := closedLoop(st.conns, satT0.Add(T*3/10), func(_ int, c *conn) sample { return send(c, pick()) })
				satT1 = time.Now()
				// Fixed rates, then the capacity search.
				low = openLoop(st.conns, hotLowRate, T/10, pick, send)
				ref = openLoop(st.conns, hotRefRate, T/4, pick, send)
				all = append(append(all, low.samples...), ref.samples...)
				capacity = searchCapacity(closedRate(all, satT0), func(rate float64) bool {
					o := openLoop(st.conns, rate, T/40, pick, send)
					steps = append(steps, o)
					all = append(all, o.samples...)
					return meetsLimit(o)
				})
				return all
			})
			if err != nil {
				return nil, nil, err
			}
			rates := sliceRates(w.samples, satT0, satT1, time.Second)
			r.res.set("throughput_rps", median(rates))
			r.res.notes["throughput_rps"] = fmt.Sprintf("median of %d one-second slices, closed loop, 2 connections", len(rates))
			r.res.set("capacity_rps", capacity)
			var trail []string
			for _, s := range steps {
				mark := "fail"
				if meetsLimit(s) {
					mark = "ok"
				}
				trail = append(trail, fmt.Sprintf("%.0f:%s", s.rate, mark))
			}
			r.res.notes["capacity_rps"] = fmt.Sprintf("p99 <= %gms, no growing backlog; steps %s", latencyLimit, strings.Join(trail, " "))
			for _, o := range []openResult{low, ref} {
				fmt.Printf("fixed rate %d/s: %s, lateness p99 %.3fms, backlog growing %v\n",
					int(o.rate), summarize(latMs(o.samples)), lateP99(o.samples), o.growing)
			}
			r.serverCPU(w, satT0, satT1, true)
			return w, ref.samples, nil
		},
		areaSeq:   pool,
		areaCount: hotPoolSize,
	})
}

// meetsLimit reports whether an open-loop step met the latency limit:
// p99 (refused and failed requests counting as misses) within
// latencyLimit and no growing backlog.
func meetsLimit(o openResult) bool {
	return !o.growing && len(o.samples) > 0 && percentile(latMs(o.samples), 99) <= latencyLimit
}

// searchCapacity finds the highest rate for which try succeeds: it
// steps up by 25% from half the saturated throughput until a step
// fails (stepping down instead if the first one fails), then bisects
// three times. It returns 0 if no rate passes.
func searchCapacity(sat float64, try func(rate float64) bool) float64 {
	lo, hi := 0.0, 0.0
	rate := math.Max(sat/2, 100)
	for i := 0; i < 6 && hi == 0; i++ {
		if try(rate) {
			lo, rate = rate, rate*1.25
		} else {
			hi = rate
		}
	}
	for i := 0; i < 4 && lo == 0; i++ {
		rate /= 1.5
		if try(rate) {
			lo = rate
		} else {
			hi = rate
		}
	}
	if lo == 0 || hi == 0 {
		return lo
	}
	for i := 0; i < 3; i++ {
		mid := math.Sqrt(lo * hi)
		if try(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// ---- cluster-dup ----

func (r *runner) clusterDup() error {
	var seq *problemSeq
	var ring *shard.Ring
	var rounds *dupRounds
	st, err := r.setUp(func(int) (*stage, error) {
		addrs, err := freeAddrs(dupReplicas)
		if err != nil {
			return nil, err
		}
		st := &stage{conns: []*conn{newConn(), newConn()}}
		peers := strings.Join(addrs, ",")
		for _, a := range addrs {
			s, err := startServer(r.cfg.mwld, a, serverProcs(r.cfg.workload),
				"-workers", "1", "-replicate", "2", "-peers", peers, "-self", a)
			if err != nil {
				return st, err
			}
			st.servers = append(st.servers, s)
		}
		if err := st.servers.ready(); err != nil {
			return st, err
		}
		urls := make([]string, len(st.servers))
		for i, s := range st.servers {
			urls[i] = s.addr
		}
		if ring, err = shard.New(urls); err != nil {
			return st, err
		}
		seq = mediumSeq(r.cfg.seed)
		if err := seq.fill(dupFill); err != nil {
			return st, err
		}
		rounds = newDupRounds(r.cfg.seed, len(st.servers))
		// Warm-up: one problem outside the sequence, from each conn to
		// each replica.
		warm, err := mediumSeq(mix(r.cfg.seed, 9, 0)).get(0)
		if err != nil {
			return st, err
		}
		for _, c := range st.conns {
			for _, s := range st.servers {
				if res := r.send(c, s.addr, warm); !res.ok {
					return st, errors.New("warm-up request failed")
				}
			}
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	replica := make(map[string]int, len(st.servers))
	for i, s := range st.servers {
		replica[s.addr] = i
	}
	load := func(d time.Duration) []sample {
		return lockstep(st.conns, time.Now().Add(d), func() [2]dupJob {
			jobs := rounds.next()
			for k := range jobs {
				p, err := seq.get(jobs[k].idx)
				if err != nil {
					panic(err) // generation is deterministic and was exercised in set-up
				}
				jobs[k].p = p
				jobs[k].relayed = replica[ring.Owner(p.key)] != jobs[k].replica
			}
			return jobs
		}, func(c *conn, j dupJob) sample {
			s := r.send(c, st.servers[j.replica].addr, j.p)
			s.relayed = j.relayed
			return s
		})
	}
	return r.execute(plan{
		st:      st,
		segment: load,
		main: func() (*window, []sample, error) {
			w, err := r.measure(st.servers, func() []sample { return load(r.T()) })
			if err != nil {
				return nil, nil, err
			}
			rates := sliceRates(w.samples, w.t0, w.t1, time.Second)
			r.res.set("throughput_rps", median(rates))
			r.res.notes["throughput_rps"] = fmt.Sprintf("median of %d one-second slices, closed loop, 2 connections in lock-step rounds", len(rates))
			r.res.set("capacity_rps", median(rates))
			r.res.notes["capacity_rps"] = "closed loop at saturation: equals throughput_rps"
			r.serverCPU(w, w.t0, w.t1, true)
			return w, w.samples, nil
		},
		areaSeq:   seq,
		areaCount: dupAreaCount,
	})
}

// dupJob is one request of a cluster-dup round.
type dupJob struct {
	idx     int // index in the problem sequence
	replica int // replica the request is sent to
	p       *problem
	relayed bool // the replica does not own the problem
}

// dupRounds generates cluster-dup rounds: a new problem sent by both
// connections at once to two different replicas, or two repeats of
// problems already introduced, each to a random replica. Deterministic
// per seed.
type dupRounds struct {
	rnd      *rand.Rand
	replicas int
	intro    int // problems introduced so far
}

func newDupRounds(seed int64, replicas int) *dupRounds {
	return &dupRounds{rnd: rand.New(rand.NewSource(mix(seed, 8, 0))), replicas: replicas}
}

func (d *dupRounds) next() [2]dupJob {
	if d.intro == 0 || d.rnd.Float64() < dupNewShare {
		i := d.intro
		d.intro++
		a := d.rnd.Intn(d.replicas)
		b := (a + 1 + d.rnd.Intn(d.replicas-1)) % d.replicas
		return [2]dupJob{{idx: i, replica: a}, {idx: i, replica: b}}
	}
	var jobs [2]dupJob
	for k := range jobs {
		jobs[k] = dupJob{idx: d.rnd.Intn(d.intro), replica: d.rnd.Intn(d.replicas)}
	}
	return jobs
}

// lockstep runs rounds of two requests, one per conn, sent at once;
// the next round starts when both are answered, until the deadline.
func lockstep(conns []*conn, deadline time.Time, round func() [2]dupJob, send func(c *conn, j dupJob) sample) []sample {
	var out []sample
	var wg sync.WaitGroup
	for time.Now().Before(deadline) {
		jobs := round()
		var got [2]sample
		for k := range jobs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k] = send(conns[k], jobs[k])
				got[k].conn = k
			}(k)
		}
		wg.Wait()
		out = append(out, got[:]...)
	}
	return out
}
