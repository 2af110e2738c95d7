package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"streampca"
	"streampca/internal/eig"
	"streampca/internal/mat"
	"streampca/internal/obs"
	"streampca/internal/stream"
	"streampca/internal/wire"
)

// layersEnv makes a re-executed copy of this binary time each layer's public
// functions in isolation, on inputs generated from the seed, and print the
// readings as one JSON object.
const layersEnv = "STREAMBENCH_LAYERS"

type layersSpec struct {
	Seed uint64
	// BudgetMs is the time spent on each timing.
	BudgetMs int
}

const (
	frameRows = 64 // rows per block and per frame, the workloads' Batch
	// streamRingBytes sizes the ring of the "stream" block timings: 16 MiB,
	// eight times the 2 MiB per-core L2 of the sizing host, so every block
	// comes from beyond L2 as it does in the pipeline.
	streamRingBytes = 16 << 20
	hotBlocks       = 4 // the "hot" block timing cycles four resident blocks
)

// timeOp returns the median nanoseconds of one op() over three batches of a
// fixed repeat count, chosen so that a batch lasts about a quarter of budget.
func timeOp(budget time.Duration, op func()) float64 {
	target := budget / 4
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		d := time.Since(t0)
		if d >= target/2 || n >= 1<<28 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = math.Min(math.Max(1.2*float64(target)/float64(d), 2), 100)
		}
		n = int(float64(n) * grow)
	}
	per := make([]float64, 3)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(per)
}

func signalRows(d, n int, seed uint64) ([][]float64, error) {
	gen, err := streampca.NewSignalGenerator(streampca.SignalConfig{Dim: d, Signals: components, OutlierRate: outlierRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i], _ = gen.Next()
	}
	return rows, nil
}

// gaussian returns an r×c matrix of standard normal draws.
func gaussian(r, c int, seed uint64) *mat.Dense {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c))
	m := mat.NewDense(r, c)
	for i := 0; i < r; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	return m
}

// readyEngine returns an engine at the workloads' configuration that has
// absorbed rows past its warm-up.
func readyEngine(d int, rows [][]float64) (*streampca.Engine, error) {
	en, err := streampca.NewEngine(streampca.Config{Dim: d, Components: components, Alpha: alpha})
	if err != nil {
		return nil, err
	}
	for i := 0; !en.Ready() || i < 2*frameRows; i++ {
		if _, err := en.Observe(rows[i%len(rows)]); err != nil {
			return nil, err
		}
	}
	return en, nil
}

func blocksOf(rows [][]float64) [][][]float64 {
	blocks := make([][][]float64, len(rows)/frameRows)
	for i := range blocks {
		blocks[i] = rows[i*frameRows : (i+1)*frameRows]
	}
	return blocks
}

func signalFrame(rows [][]float64) stream.Frame {
	f := stream.Frame{Tuples: make([]stream.Tuple, len(rows))}
	for i, r := range rows {
		f.Tuples[i] = stream.Tuple{Seq: int64(i), Vec: r}
	}
	return f
}

// loopReader replays buf forever.
type loopReader struct {
	buf []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.buf) {
		l.off = 0
	}
	n := copy(p, l.buf[l.off:])
	l.off += n
	return n, nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// isolatedTimings is the number of timeOp calls layerTimings makes; a caller
// with a total time in mind divides it by this to get the budget of one.
const isolatedTimings = 30

// layerTimings measures every isolated per-layer metric. Values are in the
// unit the metric's name ends in.
func layerTimings(spec layersSpec) (map[string]float64, error) {
	budget := time.Duration(spec.BudgetMs) * time.Millisecond
	out := map[string]float64{}
	us := func(name string, per int, op func()) {
		out[name] = timeOp(budget, op) / 1e3 / float64(per)
	}
	ns := func(name string, per int, op func()) {
		out[name] = timeOp(budget, op) / float64(per)
	}
	var firstErr error
	must := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// core: the engine's update paths, row by row and block by block.
	for _, d := range []int{16, 400, 1000} {
		rows, err := signalRows(d, streamRingBytes/(8*d)/frameRows*frameRows, spec.Seed)
		if err != nil {
			return nil, err
		}
		en, err := readyEngine(d, rows)
		if err != nil {
			return nil, err
		}
		blocks := blocksOf(rows)
		upd := make([]streampca.Update, 0, frameRows)
		i := 0
		block := func(set [][][]float64) func() {
			return func() {
				var err error
				upd, err = en.ObserveBlock(set[i%len(set)], upd[:0])
				must(err)
				i++
			}
		}
		us(fmt.Sprintf("core.block_row_us.stream.d%d", d), frameRows, block(blocks))
		if d == 400 {
			us("core.block_row_us.hot.d400", frameRows, block(blocks[:hotBlocks]))
		}
		if d != 1000 {
			us(fmt.Sprintf("core.observe_row_us.d%d", d), 1, func() {
				_, err := en.Observe(rows[i%len(rows)])
				must(err)
				i++
			})
		}
		en.Close()
	}

	// core: the gappy path, synchronization and persistence.
	{
		const d = 1000
		gen, err := streampca.NewSpectraGenerator(streampca.SpectraConfig{Grid: streampca.SDSSGrid(d), Rank: 4, GapRate: 1, Seed: spec.Seed})
		if err != nil {
			return nil, err
		}
		obsv := make([]streampca.Observation, 512)
		for i := range obsv {
			obsv[i] = gen.Next()
		}
		en, err := streampca.NewEngine(streampca.Config{Dim: d, Components: components, Alpha: alpha})
		if err != nil {
			return nil, err
		}
		i := 0
		masked := func() {
			o := obsv[i%len(obsv)]
			_, err := en.ObserveMasked(o.Flux, o.Mask)
			must(err)
			i++
		}
		for !en.Ready() {
			masked()
		}
		us("core.masked_row_us.d1000", 1, masked)
		us("core.checkpoint_us.d1000", 1, func() { must(en.SaveCheckpoint(io.Discard)) })
		en.Close()
	}
	var snap *streampca.Eigensystem
	{
		const d = 400
		rows, err := signalRows(d, 4*frameRows, spec.Seed)
		if err != nil {
			return nil, err
		}
		en, err := readyEngine(d, rows)
		if err != nil {
			return nil, err
		}
		peer, err := readyEngine(d, rows[frameRows:])
		if err != nil {
			return nil, err
		}
		snap, err = peer.Snapshot()
		if err != nil {
			return nil, err
		}
		us("core.snapshot_us.d400", 1, func() {
			_, err := en.Snapshot()
			must(err)
		})
		us("core.merge_exact_us.d400", 1, func() { must(en.MergeSnapshot(snap)) })
		us("core.merge_approx_us.d400", 1, func() { must(en.MergeApprox(snap)) })
		mine, err := en.Snapshot()
		if err != nil {
			return nil, err
		}
		systems := []*streampca.Eigensystem{mine, snap, mine, snap}
		us("core.merge_many_us.d400", 1, func() {
			_, err := streampca.MergeMany(systems)
			must(err)
		})
		en.Close()
		peer.Close()
	}

	// mat: the rank-c block kernels at the width the calibration picks.
	for _, d := range []int{400, 1000} {
		const k = components
		c := mat.BlockSize(d, k, 16)
		// Y holds up to 16 centered rows, W their update coefficients; M is
		// the identity and W small, so repeated updates leave E bounded.
		y, w, mt := gaussian(16, d, spec.Seed), mat.NewDense(16, k), mat.Identity(k)
		vecs := gaussian(d, k, spec.Seed+1)
		pool := mat.NewPool(1)
		pool.Reserve(k + c)
		name := fmt.Sprintf("mat.basis_update_us.d%d", d)
		us(name, 1, func() { pool.BasisUpdate(vecs, mt, y, w, c) })
		if d == 400 {
			// E·M + Yᵀ·W is d·k·(k+c) multiply-adds.
			out["mat.basis_update_gflops.d400"] = 2 * float64(d*k*(k+c)) / (out[name] * 1e3)
			gram := mat.NewDense(16, 16)
			us("mat.syrk_rows_us.d400", 1, func() { mat.SyrkRows(gram, y, c) })
			acc := mat.NewDense(d, k)
			us("mat.addmulta_rows_us.d400", 1, func() { mat.AddMulTARows(acc, y, w, c) })
		}
		pool.Close()
	}

	// eig and robust: the d-independent per-update work.
	{
		const n = 16
		sym := mat.Gram(nil, gaussian(n, n, spec.Seed))
		ws := eig.NewSymEigWorkspace(n)
		us("eig.jacobi_sym_us.n16", 1, func() { eig.JacobiSym(sym, ws) })
		us("eig.tridiag_sym_us.n16", 1, func() { eig.TridiagSym(sym, ws) })

		basis, work := gaussian(400, components, spec.Seed), mat.NewDense(400, components)
		ows := eig.NewOrthoWorkspace(400)
		us("eig.orthonormalize_us.d400", 1, func() {
			work.CopyFrom(basis)
			eig.OrthonormalizeWS(work, ows)
		})

		r2 := gaussian(1, 64, spec.Seed).Row(0)
		for i, v := range r2 {
			r2[i] = v * v
		}
		rho := streampca.DefaultBisquare()
		us("robust.mscale_us.n64", 1, func() {
			_, err := streampca.MScale(rho, r2, 0.5, 1)
			must(err)
		})
	}

	rows400, err := signalRows(400, frameRows, spec.Seed)
	if err != nil {
		return nil, err
	}
	frame := signalFrame(rows400)

	// stream: one message from a source through Split to four no-op sinks.
	for _, unit := range []string{"frame", "tuple"} {
		var msg stream.Message = frame
		if unit == "tuple" {
			msg = frame.Tuples[0]
		}
		const msgs = 1 << 16
		hop := func() {
			g := stream.NewGraph()
			src := g.AddSource("source", stream.CounterSource(msgs, func(int64) stream.Message { return msg }))
			split := g.Add("split", &stream.Split{N: numEngines, Seed: spec.Seed})
			must(g.Connect(src, 0, split, 0))
			for i := 0; i < numEngines; i++ {
				sink := g.Add("sink"+strconv.Itoa(i), &stream.FuncOperator{})
				must(g.Connect(split, i, sink, 0))
			}
			must(g.Run(context.Background()))
		}
		ns("stream.hop_ns."+unit, msgs, hop)
	}

	// wire: the codec alone, then a loopback edge with no engine behind it.
	{
		enc := wire.NewEncoder(io.Discard, false)
		ns("wire.encode_ns_per_frame.d400", 1, func() {
			must(enc.Append(frame))
			must(enc.Flush())
		})
		var buf bytes.Buffer
		one := wire.NewEncoder(&buf, false)
		must(one.Encode(frame))
		pool := wire.NewRecvPool(400, frameRows)
		dec := wire.NewDecoder(&loopReader{buf: buf.Bytes()}, pool, 0)
		ns("wire.decode_ns_per_frame.d400", 1, func() {
			m, err := dec.Decode()
			must(err)
			if f, ok := m.(stream.Frame); ok && f.Release != nil {
				f.Release()
			}
		})
		var cw countWriter
		senc := wire.NewEncoder(&cw, true) // single mode: every snapshot goes out whole, never as a delta
		msg := stream.Snapshot{From: 1, To: 2, State: snap}
		us("wire.snapshot_encode_us.d400", 1, func() {
			cw.n = 0
			must(senc.Encode(msg))
		})
		out["wire.snapshot_bytes.d400"] = float64(cw.n)

		const frames = 2048
		loop := timeOp(budget, func() { must(loopback(frame, frames)) })
		out["wire.loopback_tuples_per_s.d400"] = frames * frameRows / (loop / 1e9)
	}

	// ingest: the two record parsers.
	{
		const d = 1000
		rec := make([]byte, 8*d)
		for j := 0; j < d; j++ {
			binary.LittleEndian.PutUint64(rec[8*j:], math.Float64bits(float64(j)*0.25))
		}
		bs := streampca.NewBinaryStream(&loopReader{buf: rec}, d)
		us("ingest.binary_row_us.d1000", 1, func() {
			_, _, err := bs.Next()
			must(err)
		})
		var line strings.Builder
		for j, v := range rows400[0] {
			if j > 0 {
				line.WriteByte(',')
			}
			line.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		line.WriteByte('\n')
		cs := streampca.NewCSVStream(&loopReader{buf: []byte(line.String())}, streampca.CSVOptions{Dim: 400})
		us("ingest.csv_row_us.d400", 1, func() {
			_, _, err := cs.Next()
			must(err)
		})
	}

	// obs: the per-Process record and the exposition snapshot.
	{
		set := obs.NewSet()
		for i := 0; i < numEngines; i++ {
			set.Engine(i)
			set.Op("pca" + strconv.Itoa(i))
		}
		op := set.Op("pca0")
		var t int64
		ns("obs.record_ns", 1, func() {
			t++
			op.RecordProcess(t, 1000+t%4096, frameRows, int(t%8))
		})
		us("obs.snapshot_us", 1, func() { set.Snapshot() })
	}
	return out, firstErr
}

// loopback sends n copies of frame over a dial edge to an accept edge on
// 127.0.0.1 and returns once the receiver has seen the end of the stream.
func loopback(frame stream.Frame, n int) error {
	opt := wire.EdgeOptions{Dim: 400, Batch: frameRows}
	ln, err := wire.ListenEdge("127.0.0.1:0", opt)
	if err != nil {
		return err
	}
	defer ln.Close()
	accept := ln.Edge()
	defer accept.Close()
	dial := wire.DialEdge(ln.Addr().String(), opt)
	defer dial.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- accept.Source(nil)(ctx, func(_ int, m stream.Message) {
			if f, ok := m.(stream.Frame); ok && f.Release != nil {
				f.Release()
			}
		})
	}()
	send := dial.Operator()
	for i := 0; i < n; i++ {
		send.Process(0, frame, nil)
	}
	send.Flush(nil)
	return <-done
}

// layersMain runs the timings named by the environment.
func layersMain(raw string) error {
	var spec layersSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		return fmt.Errorf("bad %s: %w", layersEnv, err)
	}
	res, err := layerTimings(spec)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
