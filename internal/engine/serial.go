package engine

import (
	"fmt"

	"adr/internal/chunk"
)

// RunSerial executes the basic processing loop of Fig 1 directly, with no
// tiling, no partitioning and no parallelism: initialize an accumulator per
// output chunk, aggregate every input chunk into every target, emit. It is
// the correctness oracle the parallel engine is tested against, and doubles
// as the single-node fallback.
//
// Chunks are read through the same ChunkStorage as the parallel engine;
// node-locality is ignored (the serial executor plays every node).
func RunSerial(cfg Config) ([]*chunk.Chunk, error) {
	if cfg.Plan == nil || cfg.Workload == nil || cfg.App == nil || cfg.InputDataset == "" {
		return nil, fmt.Errorf("engine: serial run needs plan, workload, app and input dataset")
	}
	w := cfg.Workload
	app := cfg.App

	// Initialization.
	accs := make([]Accumulator, len(w.Outputs))
	for o, m := range w.Outputs {
		var existing *chunk.Chunk
		if app.InitRequiresOutput() {
			// The serial oracle reads directly; absence means nil.
			if storage, ok := cfg.storageForSerial(); ok && storage.HasChunk(cfg.OutputDataset, m) {
				data, _, err := storage.ReadChunkCached(cfg.OutputDataset, m)
				if err != nil {
					return nil, fmt.Errorf("read existing output %d: %w", o, err)
				}
				c, err := chunk.DecodeAny(data)
				if err != nil {
					return nil, err
				}
				existing = c
			}
		}
		acc, err := app.Init(m, existing, false)
		if err != nil {
			return nil, fmt.Errorf("init output %d: %w", o, err)
		}
		accs[o] = acc
	}

	// Reduction.
	storage, ok := cfg.storageForSerial()
	if !ok {
		return nil, fmt.Errorf("engine: serial run needs storage (set SerialStorage)")
	}
	for i, m := range w.Inputs {
		data, _, err := storage.ReadChunkCached(cfg.InputDataset, m)
		if err != nil {
			return nil, fmt.Errorf("read input %d: %w", i, err)
		}
		c, err := chunk.DecodeAny(data)
		if err != nil {
			return nil, err
		}
		for _, o := range w.Targets[i] {
			if err := app.Aggregate(accs[o], w.Outputs[o], c); err != nil {
				return nil, fmt.Errorf("aggregate %d into %d: %w", i, o, err)
			}
		}
	}

	// Output.
	outs := make([]*chunk.Chunk, len(w.Outputs))
	for o := range w.Outputs {
		out, err := app.Output(accs[o], w.Outputs[o])
		if err != nil {
			return nil, fmt.Errorf("output %d: %w", o, err)
		}
		src := w.Outputs[o]
		out.Meta.ID = src.ID
		out.Meta.Disk = src.Disk
		out.Meta.Node = src.Node
		out.Meta.Items = int32(len(out.Items))
		out.Meta.Dataset = src.Dataset
		if cfg.ResultDataset != "" {
			out.Meta.Dataset = cfg.ResultDataset
		}
		if out.Meta.MBR.IsEmpty() {
			out.Meta.MBR = src.MBR
		}
		outs[o] = out
	}
	return outs, nil
}

// WithSerialStorage returns a copy of cfg carrying storage for RunSerial.
// Run/RunNodeTraced receive storage as a parameter instead, so Config carries it
// only for the oracle.
func (c Config) WithSerialStorage(st ChunkStorage) Config {
	c.serialStorage = st
	return c
}

func (c *Config) storageForSerial() (ChunkStorage, bool) {
	if c.serialStorage == nil {
		return nil, false
	}
	return c.serialStorage, true
}
