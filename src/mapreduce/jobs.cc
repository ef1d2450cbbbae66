#include "mapreduce/jobs.h"

#include <algorithm>

namespace wimpy::mapreduce {

namespace {

// Per-platform CPU efficiency relative to Dhrystone throughput, calibrated
// per job family from Table 8 (Edison is the 1.0 reference).
// wordcount's 200 short-lived containers never warm the JIT, so the Xeon
// loses more of its Dhrystone edge than on the combined-input variant.
constexpr double kDellColdJvmTextEff = 0.28;
constexpr double kDellTextEff = 0.45;  // combined-input text processing
// logcount also runs 500 cold-JVM containers; its Dell efficiency matches
// the wordcount cold figure. The combined variants keep the JIT warm.
constexpr double kDellColdLogEff = 0.26;
constexpr double kDellWarmLogEff = 0.50;
constexpr double kDellPiEff = 0.70;    // arithmetic-heavy, closer to Dhrystone
constexpr double kDellSortEff = 0.40;  // memory-bound sort/merge

// Container sizes follow the cluster's YARN tuning, not the slave
// hardware's name: a node with under 1 GB of container memory (the
// §5.2 Edison tuning, 600 MB) gets the Edison sizes, so any small board
// on an Edison-tuned cluster requests containers that fit.
bool SmallContainers(const MrClusterConfig& config) {
  return config.yarn.node_usable_memory < GB(1);
}

Bytes MapMemSmall(const MrClusterConfig& config) {
  return SmallContainers(config) ? MB(150) : MB(500);
}
Bytes MapMemLarge(const MrClusterConfig& config) {
  return SmallContainers(config) ? MB(300) : GB(1);
}
Bytes ReduceMem(const MrClusterConfig& config) {
  return SmallContainers(config) ? MB(300) : GB(1);
}

}  // namespace

int TotalVcores(const MrClusterConfig& config) {
  return config.slave_count * config.yarn.node_vcores;
}

JobSpec WordCountJob(const MrClusterConfig& config) {
  JobSpec spec;
  spec.name = "wordcount";
  spec.input_prefix = "wc";
  spec.input_files = kWordCountFiles;
  spec.input_bytes = kTextInputBytes;
  spec.map_container_mem = MapMemSmall(config);
  spec.map_minstr_per_mb = 4600;   // tokenising + emitting every word
  spec.map_fixed_minstr = 14000;   // per-container task init (cold JVM)
  spec.map_output_ratio = 1.6;     // word + serialisation per occurrence
  spec.has_combiner = false;
  spec.reducers = TotalVcores(config);
  spec.reduce_container_mem = ReduceMem(config);
  spec.reduce_fixed_minstr = 300;
  spec.reduce_minstr_per_mb = 1500;
  spec.reduce_slowstart = 0.6;
  spec.job_output_ratio = 0.10;
  spec.efficiency_by_profile = {{"dell-r620", kDellColdJvmTextEff}};
  return spec;
}

JobSpec WordCount2Job(const MrClusterConfig& config) {
  JobSpec spec = WordCountJob(config);
  spec.name = "wordcount2";
  spec.combine_inputs = true;
  // One split per vcore with 10% packing slack, as the paper tunes
  // (15 MB splits on 35 Edisons, 44 MB on 2 Dells for the 1 GB input).
  spec.max_split_size = std::max<Bytes>(
      MiB(1), static_cast<Bytes>(1.2 * spec.input_bytes /
                                 TotalVcores(config)));
  spec.map_container_mem = MapMemLarge(config);
  spec.has_combiner = true;
  spec.combiner_survival = 0.05;  // few distinct words per split
  spec.combiner_minstr_per_mb = 500;
  spec.reduce_minstr_per_mb = 400;  // far fewer records reach reducers
  // Long-lived containers keep the Xeon's JIT warm.
  spec.efficiency_by_profile = {{"dell-r620", kDellTextEff}};
  return spec;
}

JobSpec LogCountJob(const MrClusterConfig& config) {
  JobSpec spec;
  spec.name = "logcount";
  spec.input_prefix = "log";
  spec.input_files = kLogCountFiles;
  spec.input_bytes = kTextInputBytes;
  spec.map_container_mem = MapMemSmall(config);
  spec.map_minstr_per_mb = 3000;  // one key per line, much lighter map
  spec.map_fixed_minstr = 7000;   // per-container task init
  spec.map_output_ratio = 0.22;   // "<date> <LEVEL>" key per ~95 B line
  spec.has_combiner = true;       // original logcount ships a combiner
  spec.combiner_survival = 0.002; // a handful of distinct date/level keys
  spec.combiner_minstr_per_mb = 300;
  spec.reducers = TotalVcores(config);
  spec.reduce_container_mem = ReduceMem(config);
  spec.reduce_fixed_minstr = 200;
  spec.reduce_minstr_per_mb = 200;
  spec.reduce_slowstart = 0.6;
  spec.job_output_ratio = 1e-6;
  spec.efficiency_by_profile = {{"dell-r620", kDellColdLogEff}};
  return spec;
}

JobSpec LogCount2Job(const MrClusterConfig& config) {
  JobSpec spec = LogCountJob(config);
  spec.name = "logcount2";
  spec.combine_inputs = true;
  spec.max_split_size = std::max<Bytes>(
      MiB(1), static_cast<Bytes>(1.2 * spec.input_bytes /
                                 TotalVcores(config)));
  spec.map_container_mem = MapMemLarge(config);
  spec.efficiency_by_profile = {{"dell-r620", kDellWarmLogEff}};
  return spec;
}

JobSpec PiJob(const MrClusterConfig& config, std::int64_t samples) {
  JobSpec spec;
  spec.name = "pi";
  spec.input_files = 0;
  spec.input_bytes = 0;
  // One map per vcore (70 on the full Edison cluster, 24 on 2 Dells).
  spec.synthetic_map_tasks = TotalVcores(config);
  spec.map_container_mem = MapMemLarge(config);
  // ~760 Dhrystone-equivalent instructions per dart (Java RNG + FP),
  // calibrated so the full Edison cluster matches the paper's 200 s.
  const double minstr_per_sample = 760e-6;
  spec.map_fixed_minstr = static_cast<double>(samples) /
                          spec.synthetic_map_tasks * minstr_per_sample;
  spec.map_output_ratio = 0;
  spec.reducers = 1;
  spec.reduce_container_mem = ReduceMem(config);
  spec.reduce_minstr_per_mb = 0;
  spec.reduce_slowstart = 1.0;  // single reducer tallies at the end
  spec.job_output_ratio = 0;
  spec.efficiency_by_profile = {{"dell-r620", kDellPiEff}};
  return spec;
}

JobSpec TeraSortJob(const MrClusterConfig& config) {
  JobSpec spec;
  spec.name = "terasort";
  spec.input_prefix = "tera";
  // 64 MiB blocks on both platforms, one block per input file (teragen
  // writes block-sized files). Round the total down to a whole number of
  // blocks so a file never spills into a tiny second block.
  spec.input_files = static_cast<int>(kTeraInputBytes / MiB(64));
  spec.input_bytes = static_cast<Bytes>(spec.input_files) * MiB(64);
  spec.map_container_mem = MapMemLarge(config);
  spec.map_minstr_per_mb = 1150;  // identity map + partition + spill sort
  spec.map_fixed_minstr = 8000;
  spec.map_output_ratio = 1.0;
  spec.has_combiner = false;
  spec.reducers = TotalVcores(config);
  spec.reduce_container_mem = ReduceMem(config);
  spec.reduce_fixed_minstr = 300;
  spec.reduce_minstr_per_mb = 900;  // streaming merge, cheaper than map-side sort
  spec.reduce_slowstart = 0.5;
  spec.job_output_ratio = 1.0;  // sorted data is written back in full
  spec.efficiency_by_profile = {{"dell-r620", kDellSortEff}};
  return spec;
}

MrClusterConfig TeraSortClusterConfig(MrClusterConfig config) {
  config.hdfs.block_size = MiB(64);
  return config;
}

void LoadInputFor(const JobSpec& spec, MrTestbed* testbed) {
  if (spec.input_files <= 0) return;
  testbed->LoadInput(spec.input_prefix, spec.input_files, spec.input_bytes);
}

}  // namespace wimpy::mapreduce
