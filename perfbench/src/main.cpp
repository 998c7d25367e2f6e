// perfbench: the repository benchmark's load generator and measurement binary.
//
//   perfbench --workload tiny|cnn|burst-slo|dag --seed N --seconds S --trace 0|1
//             [--trace-out spans.csv]
//
// Prints progress to stderr and, as the last line of stdout, one JSON object
// with the run record (seed, host fingerprint), every metric with its unit,
// clock label and sample count, and whether every output checked out. Exits
// 1 on an output mismatch or a failed schedule verification, 2 on bad usage.
// perfbench/run.py builds this binary and reduces the object to the metrics
// BENCHMARK.json declares.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out;
}

std::string cpu_model() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) != 0) continue;
        const auto value = line.find_first_not_of(" \t", line.find(':') + 1);
        if (value != std::string::npos) return line.substr(value);
    }
    return "unknown";
}

void usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\nworkloads:");
    for (const pb::WorkloadDef& w : pb::workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload;
    pb::RunOptions options;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0;
        } else if (flag == "--trace") {
            have_trace = value == "0" || value == "1";
            options.trace = value == "1";
        } else if (flag == "--trace-out") {
            options.trace_out = value;
        } else {
            usage();
            return 2;
        }
    }
    const pb::WorkloadDef* def = pb::find_workload(workload);
    if (def == nullptr || !have_seed || !have_seconds || !have_trace || argc % 2 == 0) {
        usage();
        return 2;
    }

    // The client thread (sending and observing) takes one core; server
    // workers, or the dag workload's graph executors, take the rest.
    const std::size_t cores = std::max(1U, std::thread::hardware_concurrency());
    options.workers = cores > 1 ? cores - 1 : 1;

    std::fprintf(stderr, "perfbench: workload %s (%s), seed %llu, %.1f s, trace %d\n",
                 def->name.c_str(), def->why.c_str(),
                 static_cast<unsigned long long>(options.seed), options.seconds,
                 options.trace ? 1 : 0);
    const pb::Report report = pb::run_workload(*def, options);

    std::string json = "{\"record\": {";
    json += "\"workload\": \"" + def->name + "\", ";
    json += "\"seed\": " + std::to_string(options.seed) + ", ";
    json += "\"trace\": " + std::string(options.trace ? "1" : "0") + ", ";
    json += "\"nproc\": " + std::to_string(cores) + ", ";
    json += "\"workers\": " + std::to_string(options.workers) + ", ";
    json += "\"cpu\": \"" + json_escape(cpu_model()) + "\", ";
    json += "\"build_type\": \"" PERFBENCH_BUILD_TYPE "\", ";
    json += "\"compiler\": \"" + json_escape(__VERSION__) + "\"}, ";
    json += "\"correct\": " + std::string(report.correct ? "true" : "false") + ", ";
    json += "\"attempted\": " + std::to_string(report.attempted) + ", ";
    json += "\"failed\": " + std::to_string(report.failed) + ", ";
    json += "\"notes\": [";
    for (std::size_t i = 0; i < report.notes.size(); ++i) {
        json += (i ? ", \"" : "\"") + json_escape(report.notes[i]) + "\"";
    }
    json += "], \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const pb::Metric& m = report.metrics[i];
        char value[64];
        if (std::isfinite(m.value)) {
            std::snprintf(value, sizeof value, "%.17g", m.value);
        } else {
            std::snprintf(value, sizeof value, "null");
        }
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
                m.unit + "\", \"clock\": \"" + m.clock +
                "\", \"samples\": " + std::to_string(m.samples) + "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
