package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	mwl "repro"
)

// checked is the offline verdict on one distinct answer.
type checked struct {
	sol   mwl.Solution
	err   error
	prove time.Duration
}

// checkAnswers decodes every distinct answer, checks it with mwl.Verify,
// and proves its generated Verilog with mwl.ProveVerilog, using
// workers goroutines. It runs after the timed window, never on it.
func checkAnswers(firsts []*first, workers int) []checked {
	out := make([]checked, len(firsts))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = checkOne(firsts[i])
			}
		}()
	}
	for i := range firsts {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func checkOne(f *first) checked {
	var c checked
	if err := json.Unmarshal(f.body, &c.sol); err != nil {
		c.err = fmt.Errorf("decoding answer: %w", err)
		return c
	}
	p := f.prob.p
	if err := mwl.Verify(p, c.sol); err != nil {
		c.err = err
		return c
	}
	t0 := time.Now()
	src, err := mwl.GenerateVerilog("dut", p.Graph, mwl.DefaultLibrary(), c.sol.Datapath)
	if err != nil {
		c.err = fmt.Errorf("generating Verilog: %w", err)
		return c
	}
	findings, err := mwl.ProveVerilog(src, p.Graph, nil, c.sol.Datapath)
	c.prove = time.Since(t0)
	switch {
	case err != nil:
		c.err = fmt.Errorf("proving Verilog: %w", err)
	case len(findings) > 0:
		c.err = fmt.Errorf("ProveVerilog: %d findings, first %s", len(findings), findings[0])
	}
	return c
}
