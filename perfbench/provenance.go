package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"pbqpdnn/internal/gemm"
	"pbqpdnn/internal/program"
	"pbqpdnn/internal/selector"
)

// Provenance is stamped on every record the benchmark writes: the
// result's preceding output line and the trace file.
type Provenance struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Commit is the VCS revision the binary was built from, or
	// "unknown" outside a git checkout; SourceSHA256 hashes every Go
	// source and go.mod in the checkout, so two records of the same
	// code match even where no commit is known.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	GemmVariant  string `json:"gemm_variant"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NProc        int    `json:"nproc"`
	GoVersion    string `json:"go_version"`
	// Profiler names the cost source plans were selected against.
	Profiler string      `json:"profiler"`
	Plans    []PlanStamp `json:"plans"`
}

// PlanStamp identifies one bucket's plan and compiled program: the
// primitive chosen for each conv layer (hashed into Fingerprint and
// counted in Mix), and the program counts that must repeat exactly
// when selection is analytic.
type PlanStamp struct {
	Batch        int            `json:"batch"`
	Fingerprint  string         `json:"fingerprint"`
	Mix          map[string]int `json:"mix"`
	Instructions int            `json:"instructions"`
	PeakBytes    int64          `json:"peak_bytes"`
}

func newProvenance(workload string, seed int64, traced bool, root string) (*Provenance, error) {
	src, err := sourceHash(root)
	if err != nil {
		return nil, err
	}
	return &Provenance{
		Workload:     workload,
		Seed:         seed,
		Traced:       traced,
		Commit:       commit(),
		SourceSHA256: src,
		GemmVariant:  gemm.Variant(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		GoVersion:    runtime.Version(),
	}, nil
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceHash hashes the path and contents of every .go file and go.mod
// under root, skipping dot-directories (build outputs, VCS metadata).
func sourceHash(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("perfbench: hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// stampPlan fingerprints one bucket's plan and program.
func stampPlan(plan *selector.Plan, prog *program.Program) PlanStamp {
	lines := make([]string, 0, len(plan.Primitives))
	mix := map[string]int{}
	for id, p := range plan.Primitives {
		lines = append(lines, plan.Net.Layers[id].Name+"="+p.Name)
		mix[p.Name]++
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return PlanStamp{
		Batch:        prog.Batch,
		Fingerprint:  hex.EncodeToString(sum[:8]),
		Mix:          mix,
		Instructions: prog.Stats.Instructions,
		PeakBytes:    prog.Stats.PeakBytes,
	}
}

// checkRepeat enforces the exact-repeat counts of an analytic-plan
// workload: every set-up in this run must stamp the same plans as the
// first, and the first must match the record an earlier run of the
// same sources left in dir (the record is written when there is none).
func checkRepeat(dir string, prov *Provenance, setups [][]PlanStamp) error {
	for i, s := range setups[1:] {
		if !reflect.DeepEqual(s, setups[0]) {
			return fmt.Errorf("perfbench: set-up %d stamped plans %+v, set-up 0 stamped %+v", i+1, s, setups[0])
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("repeat-%s-%s.json", prov.Workload, prov.SourceSHA256[:16]))
	prev, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		b, err := json.Marshal(setups[0])
		if err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, b, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	case err != nil:
		return err
	}
	var want []PlanStamp
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("perfbench: reading %s: %w", path, err)
	}
	if !reflect.DeepEqual(want, setups[0]) {
		return fmt.Errorf("perfbench: plans %+v differ from an earlier run's %+v (%s)", setups[0], want, path)
	}
	return nil
}
