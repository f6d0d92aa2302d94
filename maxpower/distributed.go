package maxpower

import (
	"context"
	"errors"

	"repro/internal/delay"
	"repro/internal/evt"
	"repro/internal/fleet"
	"repro/internal/netlist"
	"repro/internal/vectorgen"
)

// Shard is one dispatchable slice of a sharded estimation; see
// fleet.Shard.
type Shard = fleet.Shard

// HyperRecord is one hyper-sample's transportable outcome; see
// evt.HyperRecord. A shard's records, folded in plan order with
// MergeShardRecords, reproduce the sequential run bit for bit.
type HyperRecord = evt.HyperRecord

// DefaultShardSize is the hyper-samples per shard when
// DistributedOptions does not say otherwise.
const DefaultShardSize = fleet.DefaultShardSize

// DistributedOptions configures how an estimation shards across
// workers. The shard plan — derived from these options plus the
// EstimateOptions seed and hyper-sample cap — is the only thing a fleet
// and the single-node reference must share to bit-match.
type DistributedOptions struct {
	// ShardSize is hyper-samples per shard (0 = DefaultShardSize). The
	// last shard may be shorter.
	ShardSize int
}

// PlanShards derives the shard list a distributed run executes: shard k
// covers hyper-samples [k·size, (k+1)·size) of the budget and draws
// from the seed's substream jumped k times (2^128 steps apart, so shard
// streams never overlap). Derivation is a pure function of the options,
// so coordinators, retrying workers, and the single-node reference all
// agree on it.
func PlanShards(opt EstimateOptions, dopt DistributedOptions) ([]Shard, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return shardPlan(opt, dopt).Shards()
}

func shardPlan(opt EstimateOptions, dopt DistributedOptions) fleet.Plan {
	return fleet.Plan{
		Seed:            opt.Seed,
		ShardSize:       dopt.ShardSize,
		MaxHyperSamples: opt.evtParams().Defaults().MaxHyperSamples,
	}
}

// EstimateDistributed runs the estimator shard by shard on this
// machine — the single-node reference a fleet run must bit-match. With
// a one-shard plan (ShardSize ≥ MaxHyperSamples) it degenerates to
// Estimate with the same options, bit for bit.
func EstimateDistributed(pop *Population, opt EstimateOptions, dopt DistributedOptions) (Result, error) {
	return EstimateDistributedContext(context.Background(), pop, opt, dopt)
}

// EstimateDistributedContext is EstimateDistributed with cancellation:
// the run stops at the next hyper-sample boundary and returns the
// completed prefix folded into a partial Result (err stays nil),
// mirroring EstimateContext.
//
// Sharded runs recover per shard (a lost shard is simply re-derived
// from the plan), so the whole-run checkpoint seam does not apply:
// EstimateOptions.Checkpoint and OnCheckpoint are rejected here.
func EstimateDistributedContext(ctx context.Context, pop *Population, opt EstimateOptions, dopt DistributedOptions) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if opt.Checkpoint != nil {
		return Result{}, errors.New("maxpower: sharded runs resume per shard; EstimateOptions.Checkpoint is not supported — re-run the plan instead")
	}
	if opt.OnCheckpoint != nil {
		return Result{}, errors.New("maxpower: sharded runs checkpoint per shard; EstimateOptions.OnCheckpoint is not supported")
	}
	shards, err := shardPlan(opt, dopt).Shards()
	if err != nil {
		return Result{}, err
	}
	cfg := opt.evtParams()
	var all []HyperRecord
	stopped := false
	for _, sh := range shards {
		// A fresh estimator per shard, exactly as a worker would build one:
		// the records must not depend on which process runs the shard.
		est, err := evt.New(pop, cfg)
		if err != nil {
			return Result{}, err
		}
		_, err = fleet.RunShard(ctx, est, sh, func(_ int, rec HyperRecord) bool {
			all = append(all, rec)
			folded := evt.FoldRecords(cfg, all)
			if opt.Progress != nil {
				opt.Progress(progressSnapshot(folded))
			}
			stopped = folded.Converged
			return !stopped
		})
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				break // fold the prefix, like a cancelled sequential run
			}
			return Result{}, err
		}
		if stopped {
			break
		}
	}
	return evt.FoldRecords(cfg, all), nil
}

func progressSnapshot(res Result) ProgressSnapshot {
	return ProgressSnapshot{
		HyperSamples: res.HyperSamples,
		Estimate:     res.Estimate,
		CILow:        res.CILow,
		CIHigh:       res.CIHigh,
		RelErr:       res.RelErr,
		Units:        res.Units,
		Converged:    res.Converged,
	}
}

// RunShard executes one shard of a sharded estimation against a
// precomputed population — the worker side of a fleet. onHyper, when
// non-nil, observes each completed hyper-sample (shard-local count and
// record); returning false stops the shard early. The records are a
// pure function of (population, options, shard), so any worker given
// the same shard produces identical output.
func RunShard(ctx context.Context, pop *Population, opt EstimateOptions, sh Shard, onHyper func(done int, rec HyperRecord) bool) ([]HyperRecord, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	est, err := evt.New(pop, opt.evtParams())
	if err != nil {
		return nil, err
	}
	return fleet.RunShard(ctx, est, sh, onHyper)
}

// RunShardStreaming is RunShard against on-demand simulation: the
// worker builds the circuit's streaming source (as
// EstimateStreamingContext would) and runs the shard's hyper-samples
// through it. Bit-identical for any Workers budget, like the streaming
// estimator itself.
func RunShardStreaming(ctx context.Context, c *netlist.Circuit, spec PopulationSpec, opt EstimateOptions, sh Shard, onHyper func(done int, rec HyperRecord) bool) ([]HyperRecord, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if spec.DelayModel == "" {
		spec.DelayModel = "fanout"
	}
	model, err := delay.ByName(spec.DelayModel)
	if err != nil {
		return nil, err
	}
	gen, err := generatorFor(c.NumInputs(), spec)
	if err != nil {
		return nil, err
	}
	src, err := vectorgen.NewStreamSource(kernelEvaluator(c, model, spec.Power, opt.Kernels), gen)
	if err != nil {
		return nil, err
	}
	src.DeclaredSize = spec.Size
	src.Workers = opt.Workers
	est, err := evt.New(src, opt.evtParams())
	if err != nil {
		return nil, err
	}
	recs, err := fleet.RunShard(ctx, est, sh, onHyper)
	reportBatchFallbacks(src, opt)
	return recs, err
}

// MergeShardRecords folds per-shard records, ordered by shard index,
// into the job Result — the coordinator side of a fleet. Shards past a
// converged prefix may be nil (early stop cancelled them); a gap before
// the stopping point is an error. The fold replays the sequential
// stopping rule through the same arithmetic, so the merge equals the
// single-node sharded run to the last bit.
func MergeShardRecords(opt EstimateOptions, shards [][]HyperRecord) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	return fleet.MergeShards(opt.evtParams(), shards)
}
