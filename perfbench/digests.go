package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/evt"
	"repro/maxpower"
)

// digestTable holds the stored digest of every pool seed's result for
// one request kind, line j for pool entry j. The digests were recorded
// on amd64; Go may fuse multiply-adds on other architectures, which
// changes the last bits, so elsewhere the table is nil and matches
// everything (the in-run bit-identity checks still apply).
type digestTable []string

func loadDigests(table string) (digestTable, error) {
	if runtime.GOARCH != "amd64" {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(digestDir, table+".txt"))
	if err != nil {
		return nil, fmt.Errorf("stored digests: %w", err)
	}
	t := digestTable(strings.Fields(string(data)))
	if len(t) != poolSize {
		return nil, fmt.Errorf("stored digests %s: %d entries, want %d", table, len(t), poolSize)
	}
	return t, nil
}

func (t digestTable) match(j int, r evt.Result) bool { return t == nil || t[j] == digest(r) }

func (t digestTable) get(j int) string {
	if t == nil {
		return "(none)"
	}
	return t[j]
}

// writeAllDigests recomputes every stored table over the whole pool.
// Run it only when a change is meant to change results.
func writeAllDigests(workers int) error {
	stream, err := setupStream(workers)
	if err != nil {
		return err
	}
	finite, err := setupFinite(workers)
	if err != nil {
		return err
	}
	c6288, err := maxpower.Circuit("C6288")
	if err != nil {
		return err
	}
	lib := &libRef{c6288: c6288, kernels: maxpower.NewKernelCache(2)}
	tables := []struct {
		name string
		call func(uint64) (evt.Result, error)
	}{
		{stream.table, stream.call},
		{finite.table, finite.call},
		{"stream-c6288-zero", func(seed uint64) (evt.Result, error) { return lib.estimate(kindStream, seed) }},
	}
	if err := os.MkdirAll(digestDir, 0o755); err != nil {
		return err
	}
	pool := poolSeeds()
	for _, table := range tables {
		f, err := os.Create(filepath.Join(digestDir, table.name+".txt"))
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		for _, seed := range pool {
			r, err := table.call(seed)
			if err != nil {
				f.Close()
				return fmt.Errorf("%s seed %d: %w", table.name, seed, err)
			}
			fmt.Fprintln(w, digest(r))
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d digests)\n", table.name, len(pool))
	}
	return nil
}
