#include "scenario/scenario.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "scenario/builtin.hpp"
#include "scenario/common.hpp"

namespace ictm::scenario {

namespace {

struct Registry {
  std::vector<ScenarioInfo> order;
  std::map<std::string, ScenarioFn> byName;
};

Registry& MutableRegistry() {
  static Registry registry;
  return registry;
}

void EnsureBuiltins() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    detail::RegisterModelScenarios();
    detail::RegisterTraceScenarios();
    detail::RegisterStabilityScenarios();
    detail::RegisterEstimationScenarios();
    detail::RegisterAblationScenarios();
    detail::RegisterScaleScenarios();
    detail::RegisterTopologyScenarios();
    detail::RegisterStreamScenarios();
    detail::RegisterWhatIfScenarios();
  });
}

}  // namespace

void RegisterScenario(ScenarioInfo info, ScenarioFn fn) {
  Registry& r = MutableRegistry();
  ICTM_REQUIRE(fn != nullptr, "scenario function is null");
  ICTM_REQUIRE(!info.name.empty(), "scenario name is empty");
  ICTM_REQUIRE(r.byName.find(info.name) == r.byName.end(),
               "duplicate scenario name: " + info.name);
  r.byName.emplace(info.name, fn);
  r.order.push_back(std::move(info));
}

const std::vector<ScenarioInfo>& ListScenarios() {
  EnsureBuiltins();
  return MutableRegistry().order;
}

bool HasScenario(const std::string& name) {
  EnsureBuiltins();
  const Registry& r = MutableRegistry();
  return r.byName.find(name) != r.byName.end();
}

ScenarioResult RunScenario(const std::string& name,
                           const ScenarioContext& ctx) {
  EnsureBuiltins();
  const Registry& r = MutableRegistry();
  const auto it = r.byName.find(name);
  ICTM_REQUIRE(it != r.byName.end(), "unknown scenario: " + name);

  ScenarioResult result;
  for (const ScenarioInfo& info : r.order) {
    if (info.name == name) result.info = info;
  }

  const auto start = StartTimer();
  try {
    json::Value body = it->second(ctx, result.notes);
    const json::Object& obj = body.asObject();
    const json::Value* pass = obj.find("pass");
    ICTM_REQUIRE(pass != nullptr && pass->isBool(),
                 "scenario result lacks a boolean 'pass': " + name);
    result.pass = pass->asBool();

    // Wrap the body in the common envelope.  Only deterministic,
    // configuration-derived fields may appear here — never thread
    // counts or timings.
    json::Object envelope;
    envelope.set("schema", "ictm-scenario-result-v1");
    envelope.set("scenario", result.info.name);
    envelope.set("artifact", result.info.artifact);
    envelope.set("title", result.info.title);
    envelope.set("expectation", result.info.expectation);
    envelope.set("seed_offset",
                 static_cast<std::int64_t>(ctx.seedOffset));
    envelope.set("scale", ctx.tiny ? "tiny" : "full");
    envelope.set("pass", result.pass);
    envelope.set("results", std::move(body));
    result.doc = json::Value(std::move(envelope));
  } catch (const std::exception& e) {
    result.error = e.what();
    result.pass = false;
  }
  result.seconds = SecondsSince(start);
  return result;
}

std::vector<ScenarioResult> RunScenarios(
    const std::vector<std::string>& names, const ScenarioContext& ctx,
    std::size_t workers) {
  EnsureBuiltins();
  for (const std::string& name : names) {
    ICTM_REQUIRE(HasScenario(name), "unknown scenario: " + name);
  }
  std::vector<ScenarioResult> results(names.size());
  // Scenario-level fan-out: each scenario is seeded from the context
  // alone, so concurrent execution cannot change any result.
  ParallelFor(0, names.size(), workers, [&](std::size_t i) {
    results[i] = RunScenario(names[i], ctx);
  });
  return results;
}

void WriteResultFiles(const std::vector<ScenarioResult>& results,
                      const ScenarioContext& ctx,
                      const std::string& outDir) {
  namespace fs = std::filesystem;
  fs::create_directories(outDir);

  json::Array names;
  for (const ScenarioResult& r : results) {
    if (!r.error.empty()) continue;  // no document to write
    const fs::path path = fs::path(outDir) / (r.info.name + ".json");
    std::ofstream os(path);
    ICTM_REQUIRE(os.good(), "cannot open for writing: " + path.string());
    os << r.doc.dump(2);
    ICTM_REQUIRE(os.good(), "write failed: " + path.string());
    names.push_back(json::Value(r.info.name));
  }

  json::Object manifest;
  manifest.set("schema", "ictm-scenario-manifest-v1");
  manifest.set("seed_offset", static_cast<std::int64_t>(ctx.seedOffset));
  manifest.set("scale", ctx.tiny ? "tiny" : "full");
  manifest.set("topology",
               ctx.topology.empty() ? "default" : ctx.topology);
  manifest.set("solver", ctx.solver.empty() ? "auto" : ctx.solver);
  manifest.set("scenarios", json::Value(std::move(names)));
  const fs::path path = fs::path(outDir) / "manifest.json";
  std::ofstream os(path);
  ICTM_REQUIRE(os.good(), "cannot open for writing: " + path.string());
  os << json::Value(std::move(manifest)).dump(2);
  ICTM_REQUIRE(os.good(), "write failed: " + path.string());
}

}  // namespace ictm::scenario
