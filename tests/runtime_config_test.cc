// Tests for the LOGCL_* environment grammar (common/runtime_config.h): the
// shared boolean and integer parses, the integer and LOGCL_QUANT knobs read
// through the real environment, and the EffectiveConfig() knob list.

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/runtime_config.h"

namespace logcl {
namespace {

// Sets (or unsets, for nullopt) one environment variable for a scope and
// restores its previous state on exit, pass or fail.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, std::optional<std::string> value)
      : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    Apply(value);
  }
  ~ScopedEnv() { Apply(previous_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void Apply(const std::optional<std::string>& value) {
    if (value) {
      setenv(name_, value->c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_);
    }
  }

  const char* name_;
  std::optional<std::string> previous_;
};

int64_t PoolMaxMbFor(const char* value) {
  ScopedEnv env("LOGCL_POOL_MAX_MB", std::string(value));
  return RuntimeConfig::FromEnvironment().pool_max_mb;
}

int NumThreadsFor(const char* value) {
  ScopedEnv env("LOGCL_NUM_THREADS", std::string(value));
  return RuntimeConfig::FromEnvironment().num_threads;
}

std::string QuantFor(std::optional<std::string> value) {
  ScopedEnv env("LOGCL_QUANT", std::move(value));
  return RuntimeConfig::FromEnvironment().quant;
}

TEST(RuntimeConfigTest, BoolGrammarAcceptsBothSpellingsInAnyCase) {
  for (const char* off : {"0", "false", "off", "FALSE", "Off", "oFf"}) {
    EXPECT_FALSE(ParseBoolFlag(off, true)) << off;
  }
  for (const char* on : {"1", "true", "on", "TRUE", "On", "tRuE"}) {
    EXPECT_TRUE(ParseBoolFlag(on, false)) << on;
  }
}

TEST(RuntimeConfigTest, BoolGrammarJunkKeepsDefault) {
  for (const char* junk : {"", "yes", "no", "2", " 1", "on ", "enabled"}) {
    EXPECT_TRUE(ParseBoolFlag(junk, true)) << "'" << junk << "'";
    EXPECT_FALSE(ParseBoolFlag(junk, false)) << "'" << junk << "'";
  }
  EXPECT_TRUE(ParseBoolFlag(nullptr, true));
  EXPECT_FALSE(ParseBoolFlag(nullptr, false));
}

TEST(RuntimeConfigTest, IntGrammarParsesWholeStringInRange) {
  EXPECT_EQ(ParseIntFlag("512", 0, 4096, 1024), 512);
  EXPECT_EQ(ParseIntFlag("0", 0, 4096, 1024), 0);
  EXPECT_EQ(ParseIntFlag("4096", 0, 4096, 1024), 4096);
  EXPECT_EQ(ParseIntFlag("-3", -5, 5, 1), -3);
}

TEST(RuntimeConfigTest, IntGrammarRejectsJunkAndKeepsDefault) {
  for (const char* junk : {"abc", "1e3", "12mb", "0x10", "", "5 ", "--1"}) {
    EXPECT_EQ(ParseIntFlag(junk, 0, 1 << 20, 1024), 1024)
        << "'" << junk << "'";
  }
  EXPECT_EQ(ParseIntFlag(nullptr, 0, 1 << 20, 1024), 1024);
}

TEST(RuntimeConfigTest, IntGrammarRejectsOutOfRangeAndOverflow) {
  EXPECT_EQ(ParseIntFlag("-1", 0, 4096, 1024), 1024);
  EXPECT_EQ(ParseIntFlag("4097", 0, 4096, 1024), 1024);
  EXPECT_EQ(ParseIntFlag("9223372036854775808", 0, INT64_MAX, 7), 7);
  EXPECT_EQ(ParseIntFlag("-9223372036854775809", INT64_MIN, 0, 7), 7);
  EXPECT_EQ(ParseIntFlag("99999999999999999999999", 0, INT64_MAX, 7), 7);
}

TEST(RuntimeConfigTest, PoolCapEnvKeepsDefaultOnBadInput) {
  const int64_t fallback = RuntimeConfig().pool_max_mb;
  ASSERT_EQ(fallback, 1024);
  // A prefix parse would read "abc" as 0, which means unbounded.
  EXPECT_EQ(PoolMaxMbFor("abc"), fallback);
  // ... and "1e3" as 1 MiB.
  EXPECT_EQ(PoolMaxMbFor("1e3"), fallback);
  EXPECT_EQ(PoolMaxMbFor("-1"), fallback);
  EXPECT_EQ(PoolMaxMbFor("99999999999999999999"), fallback);
  // Large enough that the byte cap would overflow int64.
  EXPECT_EQ(PoolMaxMbFor("9223372036854775807"), fallback);
}

TEST(RuntimeConfigTest, PoolCapEnvAcceptsValidValues) {
  EXPECT_EQ(PoolMaxMbFor("512"), 512);
  EXPECT_EQ(PoolMaxMbFor("0"), 0);  // 0 = unbounded, on purpose
  ScopedEnv unset("LOGCL_POOL_MAX_MB", std::nullopt);
  EXPECT_EQ(RuntimeConfig::FromEnvironment().pool_max_mb, 1024);
}

TEST(RuntimeConfigTest, NumThreadsEnvKeepsAutoOnBadInput) {
  EXPECT_EQ(NumThreadsFor("4"), 4);
  EXPECT_EQ(NumThreadsFor("0"), 0);
  EXPECT_EQ(NumThreadsFor("abc"), 0);
  EXPECT_EQ(NumThreadsFor("4x"), 0);
  EXPECT_EQ(NumThreadsFor("-2"), 0);
  EXPECT_EQ(NumThreadsFor("256"), 256);  // kMaxNumThreads
  EXPECT_EQ(NumThreadsFor("257"), 0);
  EXPECT_EQ(NumThreadsFor("100000"), 0);
  EXPECT_EQ(NumThreadsFor("2147483648"), 0);  // INT_MAX + 1
  EXPECT_EQ(NumThreadsFor("99999999999999999999"), 0);
}

TEST(RuntimeConfigTest, QuantEnvAcceptsInt8AndKeepsFp32Otherwise) {
  EXPECT_EQ(QuantFor("int8"), "int8");
  EXPECT_EQ(QuantFor("INT8"), "int8");
  EXPECT_EQ(QuantFor("fp32"), "fp32");
  EXPECT_EQ(QuantFor("bf16"), "fp32");
  EXPECT_EQ(QuantFor("abc"), "fp32");
  EXPECT_EQ(QuantFor(std::nullopt), "fp32");
}

TEST(RuntimeConfigTest, EffectiveConfigListsEachKnobOnce) {
  const std::set<std::string> expected = {
      "LOGCL_NUM_THREADS", "LOGCL_POISON_UNINIT", "LOGCL_POOL_MAX_MB",
      "LOGCL_SIMD",        "LOGCL_QUANT",         "LOGCL_METRICS_DUMP",
      "LOGCL_METRICS_DUMP_FILE",
  };
  EXPECT_EQ(expected.size(), 7u);
  std::multiset<std::string> listed;
  for (const RuntimeConfigEntry& entry : EffectiveConfig()) {
    listed.insert(entry.env);
    EXPECT_FALSE(entry.value.empty()) << entry.env;
    EXPECT_NE(entry.doc, nullptr) << entry.env;
  }
  for (const std::string& name : expected) {
    EXPECT_EQ(listed.count(name), 1u) << name;
  }
  // No entry beyond the knobs above: a removed knob must leave the list.
  EXPECT_EQ(listed.size(), expected.size());
}

}  // namespace
}  // namespace logcl
