// Corruption corpus for the on-disk formats: a small canonical
// `.lattetrace` capture and a DesignPoint JSON record, each cut at every
// length, flipped at every byte, and stripped of each field in turn.  Every
// case must either throw std::invalid_argument carrying its format's name,
// or parse into a value whose serialization parses back to the same bytes.
// Run under ASan+UBSan, this is also the parsers' memory-safety check.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "search/design_point.hpp"
#include "search/json_io.hpp"
#include "workload/trace_io.hpp"

namespace latte {
namespace {

using search::JsonValue;

// A reader's contract under corruption, as two functions over text: parse
// (may throw) and parse-then-serialize.
struct Format {
  std::vector<std::string> error_prefixes;  // names an error must start with
  std::function<std::string(std::string_view)> reserialize;
};

struct Tally {
  std::size_t rejected = 0;
  std::size_t accepted = 0;
};

void CheckCase(const Format& format, std::string_view doc,
               const std::string& what, Tally& tally) {
  try {
    const std::string again = format.reserialize(doc);
    EXPECT_EQ(format.reserialize(again), again) << what;
    ++tally.accepted;
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    bool named = false;
    for (const auto& prefix : format.error_prefixes) {
      named = named || msg.starts_with(prefix);
    }
    EXPECT_TRUE(named) << what << ": unnamed error \"" << msg << "\"";
    ++tally.rejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw a non-invalid_argument: " << e.what();
  }
}

// Re-emits a parsed value as JSON (numbers at full precision), so a tree
// with one member removed becomes a document again.
void Emit(const JsonValue& v, std::string& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      out += buf;
      break;
    }
    case JsonValue::Kind::kString:
      out += '"';
      for (const char c : v.string) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      break;
    case JsonValue::Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        Emit(v.array[i], out);
      }
      out += ']';
      break;
    case JsonValue::Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ',';
        JsonValue key;
        key.kind = JsonValue::Kind::kString;
        key.string = v.object[i].first;
        Emit(key, out);
        out += ':';
        Emit(v.object[i].second, out);
      }
      out += '}';
      break;
  }
}

// An object member: the object holding it and its index there.
using Member = std::pair<JsonValue*, std::size_t>;

// Every object member reachable from `v`, in document order.
void CollectMembers(JsonValue& v, std::vector<Member>& out) {
  for (JsonValue& e : v.array) CollectMembers(e, out);
  for (std::size_t i = 0; i < v.object.size(); ++i) {
    out.emplace_back(&v, i);
    CollectMembers(v.object[i].second, out);
  }
}

// Runs the whole corpus over `canonical` and returns how it split.
Tally RunCorpus(const Format& format, const std::string& canonical) {
  Tally tally;
  // The canonical document itself round-trips.
  EXPECT_EQ(format.reserialize(canonical), canonical);

  for (std::size_t len = 0; len < canonical.size(); ++len) {
    CheckCase(format, std::string_view(canonical).substr(0, len),
              "truncated to " + std::to_string(len), tally);
  }
  for (std::size_t at = 0; at < canonical.size(); ++at) {
    for (const unsigned char mask : {0x01, 0x10, 0x80}) {
      std::string flipped = canonical;
      flipped[at] = static_cast<char>(flipped[at] ^ mask);
      CheckCase(format, flipped,
                "byte " + std::to_string(at) + " ^ " + std::to_string(mask),
                tally);
    }
  }
  const JsonValue tree = search::ParseJson(canonical);
  JsonValue probe = tree;
  std::vector<Member> members;
  CollectMembers(probe, members);
  EXPECT_FALSE(members.empty());
  for (std::size_t m = 0; m < members.size(); ++m) {
    JsonValue copy = tree;
    std::vector<Member> same;
    CollectMembers(copy, same);
    const auto [object, index] = same[m];
    const std::string name = object->object[index].first;
    object->object.erase(object->object.begin() +
                         static_cast<std::ptrdiff_t>(index));
    std::string doc;
    Emit(copy, doc);
    CheckCase(format, doc, "dropped field #" + std::to_string(m) + " " + name,
              tally);
  }
  return tally;
}

TEST(FormatCorruptionTest, TraceCaptureRejectsOrRoundTrips) {
  const std::vector<TimedRequest> trace = {
      {0.0, 128, 0x2a}, {0.1 / 3.0, 7, kAnonymousId}, {0.25, 384, 0x0}};
  const std::string canonical = TraceToJson(trace);
  const Format format{{"lattetrace: ", "json: "}, [](std::string_view text) {
                        return TraceToJson(TraceFromJson(text));
                      }};
  const Tally tally = RunCorpus(format, canonical);
  std::printf("[ corpus   ] lattetrace: %zu rejected, %zu accepted\n",
              tally.rejected, tally.accepted);
  EXPECT_GT(tally.rejected, canonical.size());
}

TEST(FormatCorruptionTest, DesignPointRecordRejectsOrRoundTrips) {
  search::DesignPoint dp;
  search::ReplicaDesign adaptive;
  adaptive.former.max_batch = 8;
  adaptive.former.timeout_s = 0.1 / 3.0;
  adaptive.adapt.enabled = true;
  adaptive.adapt.tiers = {{30, false, 1.0}, {12, true, 0.97}};
  search::ReplicaDesign sharded;
  sharded.backend = BackendMode::kSharded;
  sharded.shard.degree = 4;
  dp.replicas = {adaptive, sharded};
  dp.router.policy = RouterPolicy::kLengthBucketed;
  dp.router.length_edges = {105, 219};
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.enabled = true;
  dp.cache.eviction = EvictionPolicy::kSegmentedLru;
  const std::string canonical = search::DesignPointToJson(dp);
  const Format format{{"DesignPoint: ", "json: "}, [](std::string_view text) {
                        return search::DesignPointToJson(
                            search::DesignPointFromJson(text));
                      }};
  const Tally tally = RunCorpus(format, canonical);
  std::printf("[ corpus   ] DesignPoint: %zu rejected, %zu accepted\n",
              tally.rejected, tally.accepted);
  EXPECT_GT(tally.rejected, canonical.size());
}

}  // namespace
}  // namespace latte
