// Command benchmark is the repository's benchmark: five source-to-decision
// workloads driven through the public streampca API, each run in fresh
// processes, reporting the end-to-end metrics of BENCHMARK.json, the
// per-layer readings that attribute them, and a Chrome trace per workload.
//
//	go run -C benchmark streampca/benchmark --workload inproc-d400 --seed 1 --seconds 16 --trace 0
//	go run -C benchmark streampca/benchmark                    # one full set of all workloads
//	go run -C benchmark streampca/benchmark -selfcheck         # two sets, which must agree
//	go run -C benchmark streampca/benchmark compare a.json b.json
//
// See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"streampca"
)

// outRoot is where results and traces go by default: the driver's build
// directory at the root of the checkout, found from either the root or this
// package's directory (where go run -C leaves the process).
func outRoot() string {
	root := "."
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		root = ".."
	}
	return filepath.Join(root, ".bench_build", "streambench")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// reexec runs the role the environment gives this process, if any, and
// reports whether it had one. LaunchWorkers re-executes the binary as a wire
// worker; the benchmark re-executes it for one segment or for the isolated
// layer timings. main and TestMain both start here, so the test binary can
// play every role too.
func reexec() (bool, error) {
	if ran, err := streampca.WireWorkerFromEnv(context.Background()); ran {
		return true, err
	}
	if raw := os.Getenv(segmentEnv); raw != "" {
		return true, segmentMain(raw)
	}
	if raw := os.Getenv(layersEnv); raw != "" {
		return true, layersMain(raw)
	}
	return false, nil
}

func main() {
	if ran, err := reexec(); ran {
		if err != nil {
			fail(err)
		}
		return
	}

	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fail(fmt.Errorf("usage: compare base.json change.json"))
		}
		worse, err := compare(os.Args[2], os.Args[3])
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var (
		name      = flag.String("workload", "", "run this one workload and print the driver's result line; empty runs a full set")
		seed      = flag.Uint64("seed", 1, "seeds every generator and the split")
		seconds   = flag.Float64("seconds", 16, "how long one run measures")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
		runs      = flag.Int("runs", 3, "untraced runs per workload in a full set")
		out       = flag.String("out", outRoot(), "directory for result.json and the Chrome traces")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets and fail if an end-to-end metric disagrees beyond its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *runs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seconds: *seconds, reps: segmentsPerRun, outDir: *out}

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fail(err)
		}
		newHeader(*seed, o, 1).print()
		run, defs := measure, endToEnd
		if *trace != 0 {
			run, defs = traced, perLayer
		}
		r, err := run(w, *seed, o)
		if err != nil {
			fail(err)
		}
		if err := report(os.Stdout, r, defs); err != nil {
			fail(err)
		}
		if !r.Correct {
			os.Exit(1)
		}
		return
	}

	var f resultFile
	var err error
	if *selfcheck {
		f, err = selfCheck(*seed, o, *runs)
	} else {
		var s *set
		s, err = runSet(*seed, o, *runs)
		if s != nil {
			f.Sets = []*set{s}
		}
	}
	if len(f.Sets) > 0 {
		path := filepath.Join(*out, "result.json")
		if werr := writeResult(path, f); werr != nil {
			fail(werr)
		}
		fmt.Println("\nwrote", path)
	}
	if err != nil {
		fail(err)
	}
}
