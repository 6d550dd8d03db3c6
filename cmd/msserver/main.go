// Command msserver serves a trained model-slicing network over HTTP with
// the live Section 4.1 elastic-batching engine: queries POSTed to /predict
// batch up for T/2, each batch runs at the largest slice rate the Equation-3
// policy admits under calibrated per-rate timings, /metrics exposes the live
// counters in Prometheus format, and /healthz reports liveness.
//
// Serve a checkpoint written by mstrain (architecture flags must match):
//
//	mstrain -model mlp -epochs 20 -save mlp.ckpt
//	msserver -model mlp -load mlp.ckpt -addr :8080 -slo 50ms
//
// Or skip training entirely and serve a self-trained demo model:
//
//	msserver -model demo
//	curl -s localhost:8080/predict -d '{"input":[...16 floats...]}'
//
// Checkpoints (format v3, the only one persist reads) are memory-mapped, not
// read: cold start is O(1) in model size, and pages fault in lazily as the
// first windows touch them. A model served from a checkpoint can be replaced
// without dropping a query — retrain (or re-save) into the same path, then
// either signal the process or hit the admin endpoint:
//
//	kill -HUP $(pidof msserver)
//	curl -X POST localhost:8080/admin/swap
//
// In-flight windows finish on the old weights, new windows serve the new
// ones, and the calibrator re-learns t(r) over a short ramp.
//
// With -coordinator the process serves no model at all: it fronts a fleet of
// replicas (each a plain msserver), routing every query to the replica whose
// backlog admits it at the highest slice rate, health-checking members, and
// retrying or hedging around failures:
//
//	msserver -model demo -addr :8081 &
//	msserver -model demo -addr :8082 &
//	msserver -coordinator -replicas http://localhost:8081,http://localhost:8082 -addr :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"modelslicing/internal/data"
	"modelslicing/internal/demo"
	"modelslicing/internal/faults"
	"modelslicing/internal/fleet"
	"modelslicing/internal/models"
	"modelslicing/internal/nn"
	"modelslicing/internal/persist"
	"modelslicing/internal/server"
	"modelslicing/internal/slicing"
	"modelslicing/internal/tensor"
)

func main() {
	model := flag.String("model", "demo", "demo|mlp|vgg|resnet (mlp/vgg/resnet require -load)")
	loadPath := flag.String("load", "", "checkpoint written by mstrain with matching architecture flags")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	slo := flag.Duration("slo", 50*time.Millisecond, "latency SLO T; batches form every T/2")
	lb := flag.Float64("lb", 0.25, "slice-rate lower bound")
	gran := flag.Int("granularity", 4, "slice granularity")
	workers := flag.Int("workers", 0, "batch shards (0 = min(4, GOMAXPROCS))")
	queueFactor := flag.Float64("queue-factor", 1, "admission bound as a multiple of the lower-bound window capacity")
	fixedRate := flag.Float64("fixed-rate", 0, "pin serving to one rate (fixed-width baseline; 0 = elastic)")
	tier := flag.String("tier", "", "GEMM engine tier: exact|fma (empty = MS_ENGINE_TIER, default exact)")
	traceSample := flag.Int("trace-sample", 16, "sample every k-th query's span into /debug/trace (negative disables the ring)")
	dropExpired := flag.Bool("drop-expired", false, "answer queries whose SLO already expired with an error instead of computing them late")
	verify := flag.Bool("verify", true, "CRC-sweep mapped checkpoints before serving them (disable for the pure O(1) cold start)")
	seed := flag.Int64("seed", 1, "random seed")
	coordinator := flag.Bool("coordinator", false, "front a fleet of replicas instead of serving a model (see -replicas)")
	replicaList := flag.String("replicas", "", "comma-separated replica base URLs for -coordinator (more can join at runtime via POST /replicas)")
	flag.Parse()

	if *coordinator {
		runCoordinator(*addr, *slo, *replicaList)
		return
	}
	// Refuse a bad -tier before spending seconds training or loading a model.
	if _, err := tensor.ParseTier(*tier); err != nil {
		fmt.Fprintf(os.Stderr, "msserver: %v\n", err)
		os.Exit(2)
	}

	rng := rand.New(rand.NewSource(*seed))
	rates := slicing.NewRateList(*lb, *gran)

	var (
		net        nn.Layer
		inputShape []int
		accuracyAt func(r float64) float64
		info       server.ModelInfo
		swapSource func() (*slicing.Shared, server.ModelInfo, error)
	)
	switch *model {
	case "demo":
		fmt.Println("training demo MLP...")
		m := demo.TrainMLP(*lb, *gran, 30, rng)
		net, inputShape, accuracyAt = m.Net, m.InputShape, m.AccuracyAt
		for _, r := range rates {
			fmt.Printf("  rate %.4g  acc %.2f%%\n", r, 100*m.Accuracy[r])
		}
	case "mlp", "vgg", "resnet":
		if *loadPath == "" {
			fmt.Fprintf(os.Stderr, "msserver: -model %s requires -load (train one with mstrain -save)\n", *model)
			os.Exit(2)
		}
		net, inputShape = buildNet(*model, *gran, len(rates), rng)
		var err error
		info, err = loadCheckpoint(*loadPath, net.Params(), *verify)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("mapped checkpoint %s (epoch %d, crc %08x)\n", *loadPath, info.Epoch, info.CRC)
		// SwapSource rebuilds the architecture from scratch and re-binds the
		// checkpoint path — what SIGHUP and POST /admin/swap promote after the
		// path has been overwritten by a newer save.
		modelName, gran, nRates, path, doVerify := *model, *gran, len(rates), *loadPath, *verify
		swapSource = func() (*slicing.Shared, server.ModelInfo, error) {
			fresh, _ := buildNet(modelName, gran, nRates, rand.New(rand.NewSource(1)))
			ninfo, err := loadCheckpoint(path, fresh.Params(), doVerify)
			if err != nil {
				return nil, server.ModelInfo{}, err
			}
			return slicing.NewShared(fresh, rates), ninfo, nil
		}
	default:
		fmt.Fprintf(os.Stderr, "msserver: unknown model %q\n", *model)
		os.Exit(2)
	}

	srv, err := server.New(server.Config{
		Model:            net,
		Rates:            rates,
		InputShape:       inputShape,
		SLO:              *slo,
		Workers:          *workers,
		QueueFactor:      *queueFactor,
		FixedRate:        *fixedRate,
		Tier:             *tier,
		AccuracyAt:       accuracyAt,
		TraceSampleEvery: *traceSample,
		DropExpired:      *dropExpired,
		ModelInfo:        info,
		SwapSource:       swapSource,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("calibrated per-sample times:\n")
	times := srv.Calibrator().Snapshot()
	for _, r := range rates {
		if t, ok := times[r]; ok {
			fmt.Printf("  rate %.4g  t=%s  window capacity %d\n",
				r, time.Duration(t*float64(time.Second)), int((*slo).Seconds()/2/t))
		}
	}

	// The engine's API plus the Go runtime profiler: srv.Handler owns the
	// serving endpoints (/predict, /metrics, /debug/decisions, /debug/trace),
	// and net/http/pprof mounts beside them so a live CPU or heap profile is
	// one curl away — on the same port the engine counters already live on.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// Slow-client armor: a peer that trickles headers or never reads its
	// response must not pin a connection (and its goroutine) forever. The
	// write timeout dominates the SLO by a wide margin, so no legitimate
	// /predict round-trip is cut off.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      max(60*time.Second, 10*(*slo)),
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx) // stop intake, drain in-flight HTTP
		srv.Stop()                // flush the last window
		close(done)
	}()
	// SIGHUP is the operator's "reload the checkpoint" signal: rebuild the
	// model from the (presumably re-saved) path and hot-swap it in without
	// dropping a query. Demo models have no checkpoint to reload.
	go func() {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		for range hup {
			if swapSource == nil {
				fmt.Println("SIGHUP: serving an in-process model (no checkpoint); nothing to reload")
				continue
			}
			ns, ninfo, err := swapSource()
			if err != nil {
				fmt.Fprintf(os.Stderr, "msserver: SIGHUP reload: %v\n", err)
				continue
			}
			if err := srv.Swap(ns, ninfo); err != nil {
				fmt.Fprintf(os.Stderr, "msserver: SIGHUP swap: %v\n", err)
				continue
			}
			fmt.Printf("SIGHUP: swapped to checkpoint epoch %d (crc %08x)\n", ninfo.Epoch, ninfo.CRC)
		}
	}()

	fmt.Printf("serving %s on %s (SLO %s, window %s, engine tier %s)\n", *model, *addr, *slo, *slo/2, srv.Stats().EngineTier)
	if armed := faults.Summary(); armed != "" {
		fmt.Printf("WARNING: fault injection armed via MS_FAULTS: %s\n", armed)
	}
	fmt.Printf("observability: /metrics (Prometheus), /debug/decisions (flight recorder), /debug/trace (Chrome trace, 1-in-%d queries), /debug/pprof/\n",
		*traceSample)
	if swapSource != nil {
		fmt.Println("model ops: kill -HUP or POST /admin/swap reloads the checkpoint without dropping a query")
	}
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}

// buildNet constructs the serving architecture for -model mlp/vgg/resnet, so
// the initial load and every SwapSource rebuild agree on shapes. (The rng
// only seeds initial weights, which the checkpoint immediately replaces.)
func buildNet(model string, gran, nRates int, rng *rand.Rand) (nn.Layer, []int) {
	cfg := data.CIFARLike(0, 0)
	switch model {
	case "mlp":
		return models.NewMLP(cfg.Channels*cfg.H*cfg.W, []int{64, 64}, cfg.Classes, gran, rng),
			[]int{cfg.Channels * cfg.H * cfg.W}
	case "vgg":
		net, _ := models.NewVGG(models.VGG13Mini(gran, models.NormGroup, nRates), rng)
		return net, []int{cfg.Channels, cfg.H, cfg.W}
	default: // resnet
		net, _ := models.NewResNet(models.ResNetMini(gran, models.NormGroup, nRates), rng)
		return net, []int{cfg.Channels, cfg.H, cfg.W}
	}
}

// loadCheckpoint binds params to the checkpoint at path. The checkpoint is
// memory-mapped and bound in place — O(1) cold start, with an optional full
// CRC sweep first — and the mapping stays live for as long as the process
// serves those tensors.
func loadCheckpoint(path string, params []*nn.Param, verify bool) (server.ModelInfo, error) {
	ckpt, err := persist.Open(path)
	if err != nil {
		return server.ModelInfo{}, err
	}
	if verify {
		if err := ckpt.Verify(); err != nil {
			ckpt.Close()
			return server.ModelInfo{}, err
		}
	}
	if err := ckpt.Bind(params); err != nil {
		ckpt.Close()
		return server.ModelInfo{}, err
	}
	return server.ModelInfo{Epoch: ckpt.Epoch, CRC: ckpt.CRC, Path: path}, nil
}

// runCoordinator serves the fleet front end: no model, no engine — just the
// slice-aware router over the given replicas. Replicas that cannot be reached
// at startup are skipped with a warning (they can join later via
// POST /replicas once they come up); at least one must join.
func runCoordinator(addr string, slo time.Duration, replicaList string) {
	coord, err := fleet.New(fleet.Config{SLO: slo})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	joined := 0
	for _, u := range strings.Split(replicaList, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if err := coord.AddReplica(u); err != nil {
			fmt.Fprintf(os.Stderr, "msserver: replica %s did not join: %v\n", u, err)
			continue
		}
		fmt.Printf("replica joined: %s\n", u)
		joined++
	}
	if joined == 0 {
		fmt.Fprintln(os.Stderr, "msserver: -coordinator needs at least one reachable replica (-replicas http://host:port,...)")
		os.Exit(1)
	}

	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      max(60*time.Second, 10*slo),
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		coord.Stop()
		close(done)
	}()

	fmt.Printf("coordinating %d replicas on %s (SLO %s)\n", joined, addr, slo)
	if armed := faults.Summary(); armed != "" {
		fmt.Printf("WARNING: fault injection armed via MS_FAULTS: %s\n", armed)
	}
	fmt.Println("endpoints: /predict (fleet-routed), /metrics, /healthz, /replicas (GET status, POST join/leave), /admin/swap (rolling fleet-wide model swap)")
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done
}
