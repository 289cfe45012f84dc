// The four workloads and the per-layer probes (see ../README.md).
#pragma once

#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

/// Model every workload runs: the paper's ResNet-20 bundle.
inline constexpr const char* kModel = "resnet20";

/// serve_steady (`attack == false`) and serve_attack.
PassOutput run_serve(const RunContext& ctx, Tracer& tracer, bool attack);

/// campaign_detect (`eval == false`) and campaign_eval.
PassOutput run_campaign(const RunContext& ctx, Tracer& tracer, bool eval);

/// Stand-alone per-layer probes (forward, scan, attach, recover, ...),
/// timed from outside each public call.
std::map<std::string, double> run_layer_probes(Tracer& tracer);

}  // namespace perfbench
