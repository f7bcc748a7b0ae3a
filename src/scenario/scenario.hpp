// Scenario registry and experiment runner.
//
// Every paper experiment (Figs. 2-13, the DoF table, the ablations)
// plus the repo's own scaling/what-if studies is a *scenario*: a named,
// seeded, thread-aware function producing a deterministic JSON result
// document.  The registry lets `ictm list` enumerate them and
// `ictm run <scenario|all>` execute them, fanning independent
// scenarios out across workers.
//
// Determinism contract: a scenario's JSON document depends only on
// (scenario, seed offset, scale).  Thread counts, wall-clock timings
// and other run-environment facts never enter the document; they are
// reported through the out-of-band `notes` channel instead.  Hence
// `ictm run all --threads N` writes files bit-identical to
// `--threads 1`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/json.hpp"

/// Scenario registry and experiment runner: every paper figure/table
/// plus the repo's scaling and what-if studies as named, seeded,
/// thread-aware experiments with deterministic JSON results.
namespace ictm::scenario {

/// Execution parameters shared by every scenario.
struct ScenarioContext {
  /// Offset added to each scenario's canonical seeds; 0 reproduces the
  /// paper-figure defaults.
  std::uint64_t seedOffset = 0;
  /// Worker threads for the parallel kernels a scenario exercises
  /// (estimation, synthesis); 0 = all hardware threads.  Never affects
  /// the result document (the kernels are bit-identical by contract).
  std::size_t threads = 1;
  /// Run the reduced 6-node configuration (used by tests and smoke
  /// runs) instead of the full paper-scale one.
  bool tiny = false;
  /// Optional topology override for the topology-aware scenarios
  /// (estimation_scale, topo_scale): a registry spec like
  /// "hierarchy:100" or an `.ictp` file path — see
  /// topology/registry.hpp.  Empty keeps each scenario's canonical
  /// topology.  Like the seed offset this is configuration: result
  /// documents depend on it, thread counts never.
  std::string topology;
  /// Solver backend for the estimation kernels: "auto" (default when
  /// empty), "dense", "sparse" or "cg" — see core/solver_backend.hpp.
  /// Configuration like the seed offset (backends differ in low-order
  /// floating-point bits); the resolved backend is reported through
  /// the notes channel, never inside result documents.
  std::string solver;

  /// The effective seed for a canonical per-scenario seed constant.
  std::uint64_t seed(std::uint64_t canonicalSeed) const {
    return canonicalSeed + seedOffset;
  }
};

/// Registry metadata for one scenario.
struct ScenarioInfo {
  /// Unique registry key, e.g. "fig3_model_fit".
  std::string name;
  /// The paper artifact reproduced, e.g. "Fig. 3" — or "repo" for
  /// scenarios that go beyond the paper.
  std::string artifact;
  /// One-line human title.
  std::string title;
  /// The paper's claim (or this repo's expectation) the scenario checks.
  std::string expectation;
};

/// A scenario body: returns the result document (a JSON object that
/// must contain a boolean "pass") and may append human-readable,
/// run-environment-dependent lines (timings, speedups) to `notes`.
using ScenarioFn = json::Value (*)(const ScenarioContext& ctx,
                                   std::string& notes);

/// Registers a scenario; throws on duplicate names.  The built-in
/// scenarios self-register on first registry access.
void RegisterScenario(ScenarioInfo info, ScenarioFn fn);

/// All registered scenarios in registration (figure) order.
const std::vector<ScenarioInfo>& ListScenarios();

/// True when `name` is a registered scenario.
bool HasScenario(const std::string& name);

/// Outcome of one scenario execution.
struct ScenarioResult {
  /// The scenario's registry metadata.
  ScenarioInfo info;
  /// The deterministic result document (null on error).
  json::Value doc;
  /// Value of the document's "pass" field (false on error).
  bool pass = false;
  /// Non-deterministic notes (timings); never part of `doc`.
  std::string notes;
  /// Non-empty when the scenario threw; holds the exception text.
  std::string error;
  /// Wall-clock runtime in seconds (reporting only).
  double seconds = 0.0;
};

/// Runs one scenario by name; throws when the name is unknown.
/// Exceptions from the scenario body are captured in `result.error`.
ScenarioResult RunScenario(const std::string& name,
                           const ScenarioContext& ctx);

/// Runs the named scenarios, fanning them out across `workers`
/// (0 = all hardware threads); results come back in input order and
/// are independent of the fan-out, because each scenario is seeded
/// from the context alone.
std::vector<ScenarioResult> RunScenarios(
    const std::vector<std::string>& names, const ScenarioContext& ctx,
    std::size_t workers);

/// Writes one pretty-printed JSON file per result into `outDir`
/// (created if missing) as <name>.json, plus a manifest.json listing
/// the run configuration and scenario names.  File contents are
/// bit-identical across thread counts.  Throws on IO failure.
void WriteResultFiles(const std::vector<ScenarioResult>& results,
                      const ScenarioContext& ctx,
                      const std::string& outDir);

}  // namespace ictm::scenario
