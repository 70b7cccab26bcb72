// Manifest-driven batch sweeps: a small JSON document declares a matrix of
// {scenario/family, params, perturbation, epsilon, tester, sim_threads,
// instances, trials}; expansion produces a flat, deterministically ordered
// job list with per-instance derived seeds (see registry.h for the seed
// contract). The same manifest always expands to the identical job list --
// pinned by scenario_test.cc's golden-expansion tests.
//
// Manifest shape:
//
//   {
//     "name": "ci_smoke",
//     "base_seed": 1,
//     "defaults": {"trials": 3, "epsilon": 0.1, "tester": "planarity"},
//     "cells": [
//       {"scenario": "grid", "params": {"rows": [16, 24], "cols": 16}},
//       {"scenario": "apollonian", "params": {"n": 256},
//        "perturb": {"kind": "plus_random_edges", "extra": [0, 120]},
//        "epsilon": [0.1, 0.25], "tester": ["planarity", "cycle_free"]}
//     ]
//   }
//
// Any scalar of params / perturb / epsilon / tester may instead be an
// array: the cell expands to the cross product. Axis order is declaration
// order (params axes outermost, then perturb axes, then epsilon, then
// tester), with the instance index and trial index innermost -- changing
// only an axis value list never reorders unrelated jobs. Per-cell keys
// (and "defaults" fallbacks): epsilon, tester, instances, trials,
// sim_threads, adaptive, randomized, pipelined, delta, alpha.
//
// Validation is strict: unknown top-level / defaults / cell keys, and
// params or perturb keys the named family/preset/perturbation does not
// accept (see registry param_keys), are parse errors -- a misspelled knob
// fails loudly instead of silently sweeping the default.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/registry.h"

namespace cpt::scenario {

// Workload kinds the batch engine can dispatch: the three property testers
// plus the two bare Stage I partition drivers (Theorem 3 deterministic /
// Theorem 4 randomized), which the migrated E4/E6 benches sweep directly.
enum class TesterKind {
  kPlanarity,
  kCycleFree,
  kBipartite,
  kStage1Partition,
  kRandomPartition,
};
const char* tester_name(TesterKind k);
bool parse_tester(std::string_view name, TesterKind* out);

// One sweep axis: a param key plus >= 1 values.
struct SweepAxis {
  std::string key;
  bool for_perturb = false;  // axis over perturb params instead of params
  std::vector<ParamValue> values;
};

struct ManifestCell {
  std::string scenario;  // family or preset name
  ScenarioParams fixed_params;
  std::string perturb;  // "" = none
  ScenarioParams fixed_perturb_params;
  std::vector<SweepAxis> axes;        // declaration order
  std::vector<double> epsilons;       // >= 1 entry
  std::vector<TesterKind> testers;    // >= 1 entry
  std::uint32_t instances = 1;        // distinct graphs per config
  std::uint32_t trials = 1;           // tester seeds per graph
  unsigned sim_threads = 1;           // per-simulation workers
  bool adaptive = false;              // Stage I adaptive phase schedule
  bool randomized = false;            // Theorem 4 partition (minor-free testers)
  bool pipelined = true;              // Stage I pipelined streams (PR 2)
  double delta = 0.1;
  std::uint32_t alpha = 3;
  // Cumulative simulated-round budget per job (0 = unlimited): a job
  // exceeding it is recorded timed_out instead of wedging its worker.
  std::uint64_t max_rounds = 0;
};

struct Manifest {
  std::string name;
  std::uint64_t base_seed = 1;
  std::vector<ManifestCell> cells;
};

// A job's two rendered identities, computed from one label() render:
// the corpus address of its instance and its cell_key. Hot loops over a
// job list compute this once per job instead of calling instance.hash()
// and cell_key() (each renders the label) at every use.
struct JobIdentity {
  std::uint64_t instance_hash = 0;
  std::string cell_key;
};

// One expanded simulation.
struct Job {
  std::uint32_t job_index = 0;   // position in the expanded list
  std::uint32_t cell_index = 0;  // originating manifest cell
  ScenarioInstance instance;
  std::uint32_t instance_index = 0;  // within the cell configuration
  std::uint32_t trial = 0;
  TesterKind tester = TesterKind::kPlanarity;
  double epsilon = 0.1;
  bool adaptive = false;
  bool randomized = false;
  bool pipelined = true;
  double delta = 0.1;
  std::uint32_t alpha = 3;
  unsigned sim_threads = 1;
  std::uint64_t max_rounds = 0;  // 0 = unlimited (see ManifestCell)
  std::uint64_t tester_seed = 0;

  // Aggregation key: instance label (seed-free) + tester + epsilon (+
  // adaptive/randomized/unpipelined/delta/maxr markers). Jobs differing
  // only in instance/trial index share a key and aggregate into one cell.
  std::string cell_key() const;
  // {instance.hash(), cell_key()} with the label rendered once.
  JobIdentity identity() const;
};

// Parses a manifest document; returns false and fills *error on malformed
// JSON, unknown scenario/perturbation/tester names, or mistyped fields.
bool parse_manifest(std::string_view json_text, Manifest* out,
                    std::string* error);
bool load_manifest_file(const std::string& path, Manifest* out,
                        std::string* error);

// Deterministic expansion (see the axis-order contract above).
std::vector<Job> expand_manifest(const Manifest& m);

// Per-trial tester seed: splitmix64 chain over the instance seed and the
// trial index (domain-separated from instance seeds).
std::uint64_t derive_tester_seed(std::uint64_t instance_seed,
                                 std::uint32_t trial);

}  // namespace cpt::scenario
