// Command streampca runs the parallel streaming robust-PCA pipeline over a
// CSV/binary/network stream or a built-in synthetic workload and reports
// the resulting eigensystem and per-engine statistics.
//
// Usage:
//
//	spectragen -n 20000 -gaps 0.3 | streampca -input - -d 500 -p 4
//	streampca -input survey.csv -meta -engines 4 -sync 5ms
//	streampca -binary obs.f64 -d 250 -p 5
//	streampca -listen 127.0.0.1:9000 -d 250 -p 5     # CSV lines over TCP
//	streampca -url http://host/survey.csv -d 500 -p 4
//	streampca -synthetic spectra -n 20000 -d 500 -p 4 -engines 4
//	streampca -synthetic signal  -n 50000 -d 250 -p 5 -save model.spca
//	streampca -resume model.spca -synthetic signal -n 50000 -d 250 -p 5
//	streampca -worker -listen 127.0.0.1:7401 -d 250 -p 5   # one wire engine
//	streampca -synthetic signal -n 200000 -d 250 -p 5 \
//	          -peers 127.0.0.1:7401,127.0.0.1:7402          # coordinator
//
// CSV rows are observations (one value per dimension, NaN or empty =
// missing); '#' lines are comments; -meta skips three leading metadata
// columns. -save writes the final merged eigensystem as a binary
// checkpoint; -resume seeds a single-engine run from one.
//
// -worker turns the process into one distributed PCA engine serving the
// wire protocol on -listen; -peers turns it into the coordinator of such
// workers (each peer runs one engine; -engines is ignored). See
// cmd/wireharness for a self-contained localhost cluster.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"streampca"
)

func main() {
	input := flag.String("input", "", "CSV file of observations ('-' for stdin)")
	dir := flag.String("dir", "", "folder of CSV files to stream in name order")
	binaryIn := flag.String("binary", "", "binary file of little-endian float64 records")
	listen := flag.String("listen", "", "accept CSV observation lines on this TCP address")
	url := flag.String("url", "", "GET a CSV observation stream from this URL")
	meta := flag.Bool("meta", false, "input rows carry three leading metadata columns")
	synthetic := flag.String("synthetic", "", "built-in workload: 'spectra' or 'signal'")
	n := flag.Int64("n", 20000, "observations to stream (synthetic mode)")
	d := flag.Int("d", 500, "dimensionality")
	p := flag.Int("p", 4, "principal components")
	extra := flag.Int("extra", 2, "extra components for gap residual correction")
	window := flag.Float64("window", 5000, "effective sample size N (alpha = 1-1/N; 0 = infinite memory)")
	engines := flag.Int("engines", 1, "parallel PCA engines")
	syncEvery := flag.Duration("sync", 0, "sync throttle period (0 disables)")
	strategy := flag.String("strategy", "ring", "sync strategy: ring, broadcast, group")
	outliers := flag.Float64("outliers", 0.02, "synthetic outlier rate")
	gaps := flag.Float64("gaps", 0, "synthetic gappy-observation rate")
	seed := flag.Uint64("seed", 1, "seed")
	vectors := flag.String("vectors", "", "write final eigenvectors as CSV to this file")
	save := flag.String("save", "", "write the merged eigensystem checkpoint to this file")
	resume := flag.String("resume", "", "seed the run from a checkpoint file (single engine)")
	obsAddr := flag.String("obs", "", "serve observability HTTP (JSON/Prometheus/pprof/trace) on this address")
	obsWait := flag.Bool("obswait", false, "keep the -obs server up after the run until interrupted")
	traceOut := flag.String("traceout", "", "write a Chrome trace-event JSON of the run to this file")
	worker := flag.Bool("worker", false, "run as a distributed PCA worker; -listen is its wire TCP address")
	peers := flag.String("peers", "", "comma-separated worker addresses: run as the distributed coordinator")
	sessions := flag.Int("sessions", 0, "worker mode: coordinator sessions to serve before exiting (0 = forever)")
	batch := flag.Int("batch", 0, "micro-batch size for the transport (0 or 1 = frames of one)")
	report := flag.Duration("report", 0, "worker mode: ship an observability report to the coordinator this often (0 disables)")
	flag.Parse()

	alpha := 1.0
	if *window > 0 {
		alpha = 1 - 1 / *window
	}
	engCfg := streampca.Config{Dim: *d, Components: *p, Extra: *extra, Alpha: alpha}

	if *worker {
		if *peers != "" {
			fatal(fmt.Errorf("-worker and -peers are mutually exclusive"))
		}
		runWorker(*listen, *sessions, streampca.WorkerConfig{
			Engine: engCfg, Batch: *batch, ReportEvery: *report,
		})
		return
	}

	src, cleanup, err := buildSource(sourceFlags{
		input: *input, dir: *dir, binary: *binaryIn, listen: *listen, url: *url,
		meta: *meta, synthetic: *synthetic,
		n: *n, d: *d, p: *p, outliers: *outliers, gaps: *gaps, seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	if cleanup != nil {
		defer cleanup()
	}

	// Observability: one instrument bundle covers whichever run mode
	// executes; -obs serves it live, -traceout dumps the span/event timeline
	// after the run.
	var obsSet *streampca.ObsSet
	if *obsAddr != "" || *traceOut != "" {
		obsSet = streampca.NewObsSet()
	}
	// The local set is node "coordinator" of the served cluster view; a
	// distributed run's workers report into the same collector.
	var clusterObs *streampca.ObsClusterCollector
	if *obsAddr != "" {
		clusterObs = streampca.NewObsClusterCollector(obsSet)
		srv, serr := streampca.ServeObs(*obsAddr, clusterObs)
		if serr != nil {
			fatal(serr)
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s/ (metrics, metrics.json, journal, trace.json, cluster/metrics, cluster/metrics.json, cluster/trace.json, debug/pprof)\n", srv.Addr)
	}

	var merged *streampca.Eigensystem
	if *resume != "" {
		merged, err = runResumed(*resume, engCfg, src, obsSet)
		if err != nil {
			fatal(err)
		}
	} else {
		var strat streampca.SyncStrategy
		switch *strategy {
		case "ring":
			strat = streampca.SyncRing
		case "broadcast":
			strat = streampca.SyncBroadcast
		case "group":
			strat = streampca.SyncGroup
		default:
			fatal(fmt.Errorf("unknown strategy %q", *strategy))
		}
		var res *streampca.PipelineResult
		if *peers != "" {
			// Distributed mode: the listed workers each run one engine
			// behind a TCP wire edge; this process keeps the source (which
			// runs the split), the sync controller and the sink.
			res, err = streampca.RunCoordinator(context.Background(), streampca.DistConfig{
				Engine:       engCfg,
				Workers:      strings.Split(*peers, ","),
				Source:       src,
				Seed:         *seed,
				SyncEvery:    *syncEvery,
				SyncStrategy: strat,
				Batch:        *batch,
				Obs:          obsSet,
				Cluster:      clusterObs,
			})
		} else {
			res, err = streampca.RunPipeline(context.Background(), streampca.PipelineConfig{
				Engine:       engCfg,
				NumEngines:   *engines,
				Source:       src,
				Seed:         *seed,
				SyncEvery:    *syncEvery,
				SyncStrategy: strat,
				Batch:        *batch,
				Obs:          obsSet,
			})
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("stream: %d tuples in %v (%.0f tuples/s)\n",
			res.TuplesIn, res.Elapsed.Round(time.Millisecond), res.Throughput())
		for _, st := range res.Engines {
			fmt.Printf("engine %d: processed %d, outliers %d, syncs sent %d, merges %d\n",
				st.Engine, st.Processed, st.Outliers, st.SnapshotsSent, st.MergesApplied)
		}
		for i, ws := range res.Wire {
			fmt.Printf("edge %d: %d tuples, %d msgs out, %d msgs in, %d reconnects\n",
				i, ws.TuplesSent, ws.MsgsSent, ws.MsgsRecv, ws.Reconnects)
		}
		merged = res.Merged
	}
	if merged == nil {
		fatal(fmt.Errorf("no engine initialized — stream too short or degenerate"))
	}

	fmt.Printf("merged eigensystem: %s\n", merged)
	fmt.Printf("eigenvalues:")
	for _, v := range merged.Values {
		fmt.Printf(" %.5g", v)
	}
	fmt.Println()
	fmt.Printf("sigma2 (M-scale): %.5g\n", merged.Sigma2)

	if *vectors != "" {
		if err := writeVectors(*vectors, merged); err != nil {
			fatal(err)
		}
		fmt.Printf("eigenvectors written to %s\n", *vectors)
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fatal(err)
		}
		if err := streampca.WriteEigensystem(f, merged); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s\n", *save)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := streampca.WriteObsTrace(f, obsSet); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s (load at chrome://tracing)\n", *traceOut)
	}
	if *obsAddr != "" && *obsWait {
		// Scrapers (and the obs-check harness) read the finished run's
		// metrics after the pipeline drains; hold the server until told
		// to go.
		fmt.Println("run finished — observability still serving, ctrl-c to exit")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
	}
}

// runWorker serves distributed coordinator sessions until interrupted (or
// the configured session count completes).
func runWorker(addr string, sessions int, cfg streampca.WorkerConfig) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := streampca.RunWorker(ctx, addr, sessions, cfg, func(a net.Addr) {
		fmt.Printf("wire worker listening on %s (engine %dd/%dp, ctrl-c to exit)\n",
			a, cfg.Engine.Dim, cfg.Engine.Components)
	})
	if err != nil && ctx.Err() == nil {
		fatal(err)
	}
}

// runResumed restores a checkpoint into a single engine and streams into it.
// The engine is ready and never retains a row, so src may reuse its storage.
func runResumed(path string, cfg streampca.Config, src streampca.PipelineSource, set *streampca.ObsSet) (*streampca.Eigensystem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	es, err := streampca.ReadEigensystem(f)
	if err != nil {
		return nil, err
	}
	en, err := streampca.ResumeEngine(cfg, es)
	if err != nil {
		return nil, err
	}
	if set == nil {
		set = streampca.NewObsSet() // a private set still tallies the run
	}
	inst := set.Engine(0)
	for {
		vec, mask, ok := src()
		if !ok {
			break
		}
		var u streampca.Update
		var oerr error
		if mask != nil {
			u, oerr = en.ObserveMasked(vec, mask)
		} else {
			u, oerr = en.ObserveAuto(vec)
		}
		if oerr != nil {
			continue
		}
		inst.Observations.Inc() // a row is a frame of one, published as the engine operator does
		if u.Outlier {
			inst.Outliers.Inc()
		}
		vals, sigma2, effN := en.Spectrum()
		inst.RecordEigen(sigma2, effN, en.SinceSync(), vals, cfg.Components)
	}
	fmt.Printf("resumed engine: processed %d more observations, %d outliers\n", inst.Observations.Load(), inst.Outliers.Load())
	return en.Snapshot()
}

type sourceFlags struct {
	input, dir, binary, listen, url, synthetic string
	meta                                       bool
	n                                          int64
	d, p                                       int
	outliers, gaps                             float64
	seed                                       uint64
}

func buildSource(f sourceFlags) (streampca.PipelineSource, func(), error) {
	onErr := func(err error) { fmt.Fprintln(os.Stderr, "streampca: skipping record:", err) }
	opts := streampca.CSVOptions{Dim: 0}
	if f.meta {
		opts.MetaColumns = 3
	}
	switch {
	case f.input != "":
		var r *os.File
		if f.input == "-" {
			r = os.Stdin
		} else {
			file, err := os.Open(f.input)
			if err != nil {
				return nil, nil, err
			}
			r = file
		}
		return streampca.StreamSource(streampca.NewCSVStream(r, opts), onErr),
			func() { r.Close() }, nil

	case f.dir != "":
		ds, err := streampca.NewDirStream(f.dir, "*.csv", opts)
		if err != nil {
			return nil, nil, err
		}
		return streampca.StreamSource(ds, onErr), func() { ds.Close() }, nil

	case f.binary != "":
		file, err := os.Open(f.binary)
		if err != nil {
			return nil, nil, err
		}
		return streampca.StreamSource(streampca.NewBinaryStream(file, f.d), onErr),
			func() { file.Close() }, nil

	case f.listen != "":
		srv, err := streampca.NewTCPServer(f.listen, opts)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("listening for CSV observations on %s (close producers to finish)\n", srv.Addr())
		return streampca.StreamSource(srv, onErr), func() { srv.Close() }, nil

	case f.url != "":
		s, closer, err := streampca.HTTPStream(f.url, opts)
		if err != nil {
			return nil, nil, err
		}
		return streampca.StreamSource(s, onErr), func() { closer.Close() }, nil

	case f.synthetic == "spectra":
		gen, err := streampca.NewSpectraGenerator(streampca.SpectraConfig{
			Grid: streampca.SDSSGrid(f.d), Rank: f.p,
			OutlierRate: f.outliers, GapRate: f.gaps, Seed: f.seed,
		})
		if err != nil {
			return nil, nil, err
		}
		var i int64
		return func() ([]float64, []bool, bool) {
			if i >= f.n {
				return nil, nil, false
			}
			i++
			obs := gen.Next()
			return obs.Flux, obs.Mask, true
		}, nil, nil

	case f.synthetic == "signal":
		gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{
			Dim: f.d, Signals: f.p, OutlierRate: f.outliers, Seed: f.seed,
		})
		if err != nil {
			return nil, nil, err
		}
		var i int64
		return func() ([]float64, []bool, bool) {
			if i >= f.n {
				return nil, nil, false
			}
			i++
			x, _ := gen.Next()
			return x, nil, true
		}, nil, nil
	}
	return nil, nil, fmt.Errorf("choose an input: -input, -binary, -listen, -url, or -synthetic spectra|signal")
}

func writeVectors(path string, es *streampca.Eigensystem) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	d := es.Dim()
	k := es.NumComponents()
	for i := 0; i < d; i++ {
		for j := 0; j < k; j++ {
			if j > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "%.8g", es.Vectors.At(i, j))
		}
		w.WriteByte('\n')
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "streampca:", err)
	os.Exit(1)
}
