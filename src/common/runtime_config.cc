#include "common/runtime_config.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>

#include "common/parallel.h"

namespace logcl {

namespace {

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

std::string EnvString(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

const char* OnOff(bool v) { return v ? "on" : "off"; }

}  // namespace

bool ParseBoolFlag(const char* value, bool default_value) {
  if (value == nullptr) return default_value;
  std::string v = Lower(value);
  if (v == "0" || v == "false" || v == "off") return false;
  if (v == "1" || v == "true" || v == "on") return true;
  return default_value;
}

int64_t ParseIntFlag(const char* value, int64_t min_value, int64_t max_value,
                     int64_t default_value) {
  if (value == nullptr || *value == '\0') return default_value;
  char* end = nullptr;
  errno = 0;
  long long n = std::strtoll(value, &end, 10);
  if (errno != 0 || *end != '\0' || n < min_value || n > max_value) {
    return default_value;
  }
  return n;
}

RuntimeConfig RuntimeConfig::FromEnvironment() {
  RuntimeConfig config;
  config.num_threads = static_cast<int>(ParseIntFlag(
      std::getenv("LOGCL_NUM_THREADS"), 0, kMaxNumThreads,
      config.num_threads));
  config.poison_uninit =
      ParseBoolFlag(std::getenv("LOGCL_POISON_UNINIT"), config.poison_uninit);
  // The cap is kept in bytes (tensor/buffer_pool.cc), so the MiB value must
  // not overflow when shifted by 20.
  config.pool_max_mb = ParseIntFlag(std::getenv("LOGCL_POOL_MAX_MB"), 0,
                                    INT64_MAX >> 20, config.pool_max_mb);
  config.simd = ParseBoolFlag(std::getenv("LOGCL_SIMD"), config.simd);
  if (Lower(EnvString("LOGCL_QUANT")) == "int8") config.quant = "int8";
  config.metrics_dump = EnvString("LOGCL_METRICS_DUMP");
  config.metrics_dump_file = EnvString("LOGCL_METRICS_DUMP_FILE");
  return config;
}

const RuntimeConfig& RuntimeConfig::Get() {
  static const RuntimeConfig* config = new RuntimeConfig(FromEnvironment());
  return *config;
}

std::vector<RuntimeConfigEntry> EffectiveConfig() {
  const RuntimeConfig& c = RuntimeConfig::Get();
  std::vector<RuntimeConfigEntry> entries;
  entries.push_back({"LOGCL_NUM_THREADS",
                     c.num_threads == 0 ? "auto" : std::to_string(c.num_threads),
                     "auto", "worker count of the shared thread pool"});
  entries.push_back({"LOGCL_POISON_UNINIT", OnOff(c.poison_uninit), "off",
                     "sNaN-poison recycled uninitialised buffers"});
  entries.push_back({"LOGCL_POOL_MAX_MB",
                     c.pool_max_mb == 0 ? "unbounded"
                                        : std::to_string(c.pool_max_mb),
                     "1024", "MiB cap on the global pooled free lists"});
  entries.push_back({"LOGCL_SIMD", OnOff(c.simd), "on",
                     "runtime-dispatched AVX2/NEON kernel tables"});
  entries.push_back({"LOGCL_QUANT", c.quant, "fp32",
                     "default snapshot scoring precision"});
  entries.push_back({"LOGCL_METRICS_DUMP",
                     c.metrics_dump.empty() ? "off" : c.metrics_dump, "off",
                     "atexit metrics dump format (text|json)"});
  entries.push_back({"LOGCL_METRICS_DUMP_FILE",
                     c.metrics_dump_file.empty() ? "stderr"
                                                 : c.metrics_dump_file,
                     "stderr", "metrics dump destination"});
  return entries;
}

void DumpEffectiveConfig(std::ostream& os) {
  for (const RuntimeConfigEntry& e : EffectiveConfig()) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-26s = %-10s (default %-6s) %s\n",
                  e.env, e.value.c_str(), e.fallback, e.doc);
    os << line;
  }
}

}  // namespace logcl
