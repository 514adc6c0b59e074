package bench

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// RunOutcome couples an experiment's Result with harness-side
// measurements of the run itself.
type RunOutcome struct {
	Exp    Experiment
	Result Result
	Wall   time.Duration
	Allocs int64 // heap allocations during the run; -1 when run in parallel
}

// RunAll executes every experiment and returns outcomes in All() order.
// workers <= 1 runs sequentially. workers > 1 fans experiments out over
// that many goroutines; each experiment drives its own private
// sim.Engine, so the Results are identical to a sequential run — only
// wall time changes, and per-experiment alloc counts are not attributed
// (reported as -1).
func RunAll(workers int) []RunOutcome { return RunAllShards(workers, 0) }

// RunAllShards is RunAll with an explicit cluster shard count applied
// to every experiment that has a sharded form (shards <= 0 keeps each
// experiment's default). Tables are shard-count invariant, so the
// outcomes differ from RunAll only in wall time.
func RunAllShards(workers, shards int) []RunOutcome {
	exps := All()
	out := make([]RunOutcome, len(exps))
	runOne := func(i int, seq bool) {
		out[i].Exp = exps[i]
		out[i].Allocs = -1
		var m0 runtime.MemStats
		if seq {
			runtime.ReadMemStats(&m0)
		}
		start := time.Now() //hyperlint:allow(nodeterm) harness-side wall measurement; never feeds model time
		out[i].Result = exps[i].RunAt(shards)
		out[i].Wall = time.Since(start) //hyperlint:allow(nodeterm) harness-side wall measurement; never feeds model time
		if seq {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			out[i].Allocs = int64(m1.Mallocs - m0.Mallocs)
		}
	}
	if workers <= 1 {
		for i := range exps {
			runOne(i, true)
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i, false)
			}
		}()
	}
	for i := range exps {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// Record is the machine-readable form of one outcome: a row of the
// BENCH_*.json perf-trajectory files that successive revisions append
// to. Headline is the experiment's first note — the sentence each
// experiment uses to state its key finding.
type Record struct {
	ID            string  `json:"id"`
	Name          string  `json:"name"`
	Title         string  `json:"title"`
	Headline      string  `json:"headline,omitempty"`
	VirtualTime   string  `json:"virtual_time"`
	VirtualTimePs int64   `json:"virtual_time_ps"`
	Events        uint64  `json:"events"`
	WallMS        float64 `json:"wall_ms"`
	Allocs        int64   `json:"allocs"` // -1 when not attributed (parallel run)
	Rows          int     `json:"rows"`
	TableSHA256   string  `json:"table_sha256"`
	// ShardSweep, when present, records the experiment's wall cost as a
	// function of sim.Cluster shard count (E17; attached by
	// `benchctl -shardsweep`). Older reports simply omit it.
	ShardSweep []RackSweepPoint `json:"shard_sweep,omitempty"`
}

// ToRecord converts an outcome to its JSON row.
func (o RunOutcome) ToRecord() Record {
	rec := Record{
		ID:            o.Result.ID,
		Name:          o.Exp.Name,
		Title:         o.Result.Title,
		VirtualTime:   o.Result.SimTime.String(),
		VirtualTimePs: int64(o.Result.SimTime),
		Events:        o.Result.Steps,
		WallMS:        float64(o.Wall.Microseconds()) / 1000,
		Allocs:        o.Allocs,
		Rows:          len(o.Result.Table.Rows),
		TableSHA256:   fmt.Sprintf("%x", sha256.Sum256([]byte(o.Result.Table.String()))),
	}
	if len(o.Result.Notes) > 0 {
		rec.Headline = o.Result.Notes[0]
	}
	return rec
}

// Report is the top-level shape of a BENCH_*.json file.
type Report struct {
	Schema      string   `json:"schema"`
	Workers     int      `json:"workers"`
	HostCPUs    int      `json:"host_cpus,omitempty"` // CPUs the run had; wall numbers are meaningless without it
	TotalWallMS float64  `json:"total_wall_ms"`
	Results     []Record `json:"results"`
}

// MakeReport assembles the in-memory report for outcomes.
func MakeReport(workers int, totalWall time.Duration, outs []RunOutcome) Report {
	rep := Report{
		Schema:      "hyperion-bench/v1",
		Workers:     workers,
		HostCPUs:    runtime.NumCPU(),
		TotalWallMS: float64(totalWall.Microseconds()) / 1000,
	}
	for _, o := range outs {
		rep.Results = append(rep.Results, o.ToRecord())
	}
	return rep
}

// WriteReport writes an assembled (possibly annotated) report to path.
func WriteReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
