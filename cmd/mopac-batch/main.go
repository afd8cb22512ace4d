// Command mopac-batch runs every simulation described by a JSON
// configuration file (the artifact-style batch workflow) and renders a
// result table as markdown or CSV.
//
//	mopac-batch -init > runs.json        # write an example config
//	mopac-batch -c runs.json             # run it (markdown to stdout)
//	mopac-batch -c runs.json -j 8        # eight runs in parallel
//	mopac-batch -c runs.json -f csv -o out.csv
//
// With -server the batch executes remotely: each run is submitted to a
// mopac-serve endpoint (standalone or fleet coordinator) as a
// synchronous job, honoring 429 backpressure via Retry-After, and the
// table is rendered from the returned result summaries.
//
//	mopac-batch -c runs.json -server http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mopac/internal/buildinfo"
	"mopac/internal/config"
	"mopac/internal/report"
	"mopac/internal/service"
	"mopac/internal/sim"
	"mopac/internal/store"
)

func main() {
	var (
		path   = flag.String("c", "", "JSON configuration file")
		format = flag.String("f", "markdown", "output format: markdown | csv")
		out    = flag.String("o", "", "output file (default stdout)")
		// -j defaults to 0 = full machine budget, matching every other
		// CLI's parallelism flag; runs are deterministic and isolated, so
		// serial execution buys nothing but wall-clock time.
		jobs     = flag.Int("j", 0, "runs to execute in parallel (0 = GOMAXPROCS; 8 in flight with -server)")
		storeDir = flag.String("store", "", "result store directory (default: user cache dir, e.g. ~/.cache/mopac)")
		noStore  = flag.Bool("no-store", false, "disable the persistent result store")
		initEx   = flag.Bool("init", false, "print an example configuration and exit")
		list     = flag.Bool("list-designs", false, "list the registered design names and exit")
		version  = flag.Bool("version", false, "print build information and exit")
		server   = flag.String("server", "", "run the batch remotely against this mopac-serve base URL")
		tenant   = flag.String("tenant", "", "X-Tenant header for -server submissions")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}
	if *list {
		for _, d := range config.Designs() {
			fmt.Println(d)
		}
		return
	}

	if *initEx {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(config.Example()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *path == "" {
		fmt.Fprintln(os.Stderr, "mopac-batch: -c config.json is required (see -init)")
		os.Exit(2)
	}
	f, err := config.LoadPath(*path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fm, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		fd, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer fd.Close()
		w = fd
	}

	exps, err := f.Expand()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *server != "" {
		if err := runRemote(w, fm, *path, *server, *tenant, *jobs, exps); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Validate every run before simulating any, so a bad file fails
	// fast instead of after the runs ahead of its bad entry.
	for i, e := range exps {
		if err := e.Config.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "run %d (%s %s/%s): %v\n",
				i, e.RunName, e.Config.Design, e.Config.Workload, err)
			os.Exit(1)
		}
	}

	// The batch runs through the experiment planner: duplicate configs
	// simulate once, the rest fan out over one worker pool, and results
	// persist in the planner's store namespace, so a batch of configs
	// already simulated by `make experiments` — or a previous batch —
	// costs a directory read. Security-tracking runs bypass the store
	// (oracle state does not serialize).
	plan := sim.NewPlanner(*jobs)
	if !*noStore {
		dir := *storeDir
		var err error
		if dir == "" {
			dir, err = store.DefaultDir()
		}
		var st *store.Store
		if err == nil {
			st, err = store.Open(dir, sim.StoreSchema, buildinfo.Get().Revision)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "result store disabled: %v\n", err)
		} else {
			plan.SetStore(st)
		}
	}
	for _, e := range exps {
		plan.Need(e.Config)
	}
	plan.SetProgress(func(done, total int) {
		fmt.Fprintf(os.Stderr, "[%d/%d] runs finished\n", done, total)
	})
	start := time.Now()
	// A failed run aborts the rest; each run's own error is reported
	// with the table below.
	_ = plan.Flush()
	st := plan.Stats()
	fmt.Fprintf(os.Stderr, "%d unique of %d runs finished in %v; %d served from the result store\n",
		st.Unique, len(exps), time.Since(start).Round(time.Millisecond), st.StoreHits)

	sums := make([]*sim.ResultSummary, len(exps))
	errs := make([]error, len(exps))
	for i, e := range exps {
		res, err := plan.Get(e.Config)
		if err != nil {
			errs[i] = err
			continue
		}
		sum := res.Summary()
		sums[i] = &sum
	}
	err = writeResults(w, fm, fmt.Sprintf("mopac-batch: %d runs from %s", len(exps), *path), exps, sums, errs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeResults renders the batch's result table, one row per run from
// its summary. A run that failed gets no row: its error, errs[i], goes
// to stderr, and writeResults returns an error once the table is out.
func writeResults(w io.Writer, fm report.Format, title string, exps []config.Expansion, sums []*sim.ResultSummary, errs []error) error {
	tbl := report.NewTable(title,
		"run", "design", "T_RH", "workload", "sumIPC", "RBHR", "avg lat (ns)",
		"P99 lat (ns)", "alerts", "mitigations", "secure",
	)
	failed := false
	for i, e := range exps {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "run %d (%s %s/%s): %v\n",
				i, e.RunName, e.Config.Design, e.Config.Workload, errs[i])
			failed = true
			continue
		}
		sum := sums[i]
		secure := "n/a"
		if sum.Secure != nil {
			secure = fmt.Sprintf("%v", *sum.Secure)
		}
		if err := tbl.AddRowf(
			e.RunName, e.Config.Design, e.Config.TRH, e.Config.Workload,
			sum.SumIPC, sum.RBHR, sum.AvgLatencyNs, sum.P99LatencyNs,
			sum.Alerts, sum.Mitigations, secure,
		); err != nil {
			return err
		}
	}
	if err := tbl.Render(w, fm); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("some runs failed")
	}
	return nil
}

// toJobRequest maps an expanded sim.Config back onto the service wire
// form. Design and policy names round-trip through their parsers
// (ParseDesign lowercases; PagePolicy.String appends "-page").
func toJobRequest(c sim.Config) (service.JobRequest, error) {
	if c.CommandLogDepth != 0 {
		return service.JobRequest{}, fmt.Errorf("command logging is not supported by the service API")
	}
	return service.JobRequest{
		Design:           strings.ToLower(c.Design.String()),
		TRH:              c.TRH,
		Workload:         c.Workload,
		Cores:            c.Cores,
		InstrPerCore:     c.InstrPerCore,
		NUP:              c.NUP,
		RowPress:         c.RowPress,
		Chips:            c.Chips,
		SRQSize:          c.SRQSize,
		DrainOnREF:       c.DrainOnREF,
		RFMLevel:         c.RFMLevel,
		MaxPostponedREFs: c.MaxPostponedREFs,
		PInvOverride:     c.PInvOverride,
		Policy:           strings.TrimSuffix(c.Policy.String(), "-page"),
		TimeoutNs:        c.TimeoutNs,
		Seed:             c.Seed,
		Oracle:           c.TrackSecurity,
	}, nil
}

// submitWait posts one job synchronously, sleeping out 429 Retry-After
// hints (clamped to a minute, bounded attempts) before giving up.
func submitWait(client *http.Client, server, tenant string, req service.JobRequest) (*sim.ResultSummary, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	url := strings.TrimSuffix(server, "/") + "/v1/jobs?wait=1"
	const maxAttempts = 10
	for attempt := 1; ; attempt++ {
		hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, false, err
		}
		hr.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			hr.Header.Set("X-Tenant", tenant)
		}
		resp, err := client.Do(hr)
		if err != nil {
			return nil, false, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := 1 * time.Second
			if secs, err := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); err == nil && secs > 0 {
				wait = time.Duration(secs) * time.Second
			}
			if wait > time.Minute {
				wait = time.Minute
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if attempt >= maxAttempts {
				return nil, false, fmt.Errorf("server overloaded: %d 429s, giving up", attempt)
			}
			time.Sleep(wait)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return nil, false, fmt.Errorf("server status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		}
		// A standalone server answers with a flat JobStatus; a fleet
		// coordinator wraps the worker's status in a JobView under "job".
		var wire struct {
			service.JobStatus
			Job *service.JobStatus `json:"job"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
			return nil, false, err
		}
		status := wire.JobStatus
		if wire.Job != nil {
			status = *wire.Job
		}
		if status.State != service.StateDone || status.Result == nil {
			return nil, false, fmt.Errorf("job %s ended %s: %s", status.ID, status.State, status.Error)
		}
		return status.Result, status.CacheHit, nil
	}
}

// runRemote executes the batch against a mopac-serve endpoint and
// renders the same table shape as the local path, sourced from result
// summaries instead of full results.
func runRemote(w io.Writer, fm report.Format, path, server, tenant string, jobs int, exps []config.Expansion) error {
	if jobs <= 0 {
		// The server owns the simulation budget; the client cap only
		// bounds queue pressure (and so 429 churn) from this batch.
		jobs = 8
	}
	client := &http.Client{Timeout: 10 * time.Minute}
	sums := make([]*sim.ResultSummary, len(exps))
	errs := make([]error, len(exps))
	var finished, cached atomic.Int64
	service.ForEach(jobs, len(exps), func(i int) {
		e := exps[i]
		req, err := toJobRequest(e.Config)
		if err != nil {
			errs[i] = err
			return
		}
		start := time.Now()
		sum, hit, err := submitWait(client, server, tenant, req)
		if err != nil {
			errs[i] = err
			return
		}
		sums[i] = sum
		from := "done in " + time.Since(start).Round(time.Millisecond).String()
		if hit {
			cached.Add(1)
			from = "from server cache"
		}
		fmt.Fprintf(os.Stderr, "[%d/%d] %s %s/%s %s\n",
			finished.Add(1), len(exps), e.RunName, e.Config.Design, e.Config.Workload, from)
	})
	if n := cached.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "%d of %d runs served from the server result cache\n", n, len(exps))
	}
	return writeResults(w, fm, fmt.Sprintf("mopac-batch: %d runs from %s via %s", len(exps), path, server), exps, sums, errs)
}
