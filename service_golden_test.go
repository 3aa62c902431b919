package mwl_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	mwl "repro"
)

// goldenRow is one row of internal/core/testdata/allocate.golden replayed
// as a Problem.
type goldenRow struct {
	key  string
	p    mwl.Problem
	want string // expected result text: the row minus its key
}

// loadServiceGoldenRows returns the golden rows with at most maxN
// operations that a Problem can express: plain and fixed-limit dpalloc
// rows and pipelined rows. Rows with a refinement batch or an ablation
// switch have no Problem encoding and are skipped. Each Problem carries
// an in-memory library, so the Service solves it every time instead of
// serving a memoized answer.
func loadServiceGoldenRows(t *testing.T, maxN int) []goldenRow {
	t.Helper()
	f, err := os.Open("internal/core/testdata/allocate.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lib := mwl.DefaultLibrary()
	var rows []goldenRow
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, want, _ := strings.Cut(line, " ")
		parts := strings.Split(key, "/")
		p := mwl.Problem{Method: parts[0], Lib: lib}
		var n int
		var seed int64
		skip := false
		for _, kv := range parts[1:] {
			k, v, _ := strings.Cut(kv, "=")
			switch k {
			case "n":
				n, _ = strconv.Atoi(v)
			case "seed":
				seed, _ = strconv.ParseInt(v, 10, 64)
			case "lambda":
				p.Lambda, _ = strconv.Atoi(v)
			case "ii":
				p.II, _ = strconv.Atoi(v)
			case "limits":
				p.Options.Limits = map[string]int{}
				for _, cl := range strings.Split(v, ",") {
					name, c, _ := strings.Cut(cl, ":")
					p.Options.Limits[name], _ = strconv.Atoi(c)
				}
			default:
				skip = true
			}
		}
		if skip || n > maxN {
			continue
		}
		g, err := mwl.GenerateRandom(mwl.RandomConfig{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		p.Graph = g
		rows = append(rows, goldenRow{key: key, p: p, want: want})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no replayable golden rows")
	}
	return rows
}

// serviceGoldenResult renders a Service answer in the golden's result
// format. The Service does not surface EdgesDeleted and Kinds, so those
// two fields are taken from the expected row; everything else is the
// solver's own.
func serviceGoldenResult(want string, sol mwl.Solution) (string, error) {
	var edges, kinds string
	for _, f := range strings.Fields(want) {
		switch {
		case strings.HasPrefix(f, "edges="):
			edges = f
		case strings.HasPrefix(f, "kinds="):
			kinds = f
		}
	}
	djson, err := json.Marshal(sol.Datapath)
	if err != nil {
		return "", err
	}
	st := sol.Stats
	return fmt.Sprintf("area=%d iterations=%d refinements=%d %s %s configs=%d merges=%d evals=%d sha256=%x",
		sol.Area, st.Iterations, st.Refinements, edges, kinds, st.Configs, st.Merges, st.Evals,
		sha256.Sum256(djson)), nil
}

// TestServiceConcurrentSolvesMatchGolden runs the golden rows with N ≤
// 100 from 8 goroutines at once through a 4-worker Service, every row
// solved by two goroutines, and requires every answer to match the
// golden: solves sharing the process must not share state.
func TestServiceConcurrentSolvesMatchGolden(t *testing.T) {
	rows := loadServiceGoldenRows(t, 100)
	svc := mwl.NewService(4)
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g % (goroutines / 2); i < len(rows); i += goroutines / 2 {
				r := rows[i]
				sol, err := svc.Solve(context.Background(), r.p)
				if strings.HasPrefix(r.want, "error ") {
					if err == nil {
						t.Errorf("%s: solved, golden records an error", r.key)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", r.key, err)
					continue
				}
				got, err := serviceGoldenResult(r.want, sol)
				if err != nil {
					t.Errorf("%s: %v", r.key, err)
					continue
				}
				if got != r.want {
					t.Errorf("%s (goroutine %d):\n got  %s\n want %s", r.key, g, got, r.want)
				}
			}
		}(g)
	}
	wg.Wait()
}
