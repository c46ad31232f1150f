// In-memory span recorder of the layer pass and its Chrome trace export.

#include <algorithm>
#include <map>

#include "bench.hpp"
#include "obs/json_writer.hpp"

namespace latte::bench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t SpanRecorder::Begin(std::string name, std::int64_t request) {
  if (!enabled_) return -1;
  const double now = Now();
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), now, now, parent, request, 0});
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(std::int64_t span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_s = Now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void SpanRecorder::AddChild(std::int64_t parent, std::string name,
                            double begin_s, double end_s, std::int64_t request,
                            std::uint32_t thread) {
  if (!enabled_) return;
  spans_.push_back({std::move(name), begin_s, end_s, parent, request, thread});
}

std::vector<std::pair<std::string, double>> SpanRecorder::SelfTimes() const {
  // Children of one parent may overlap (parallel items), so the covered
  // part of the parent is the union of their intervals.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.begin_s, s.end_s});
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[spans_[i].name] += (spans_[i].end_s - spans_[i].begin_s) - covered;
  }
  return {self.begin(), self.end()};
}

std::string SpanRecorder::ChromeTraceJson() const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("traceEvents");
  json.BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.BeginObject();
    json.Key("name").Value(s.name);
    json.Key("cat").Value(s.name.substr(0, s.name.find('.')));
    json.Key("ph").Value("X");
    json.Key("ts").ValueExact(s.begin_s * 1e6);
    json.Key("dur").ValueExact((s.end_s - s.begin_s) * 1e6);
    json.Key("pid").Value(std::size_t{1});
    json.Key("tid").Value(static_cast<std::size_t>(s.thread));
    json.Key("args");
    json.BeginObject();
    json.Key("span").Value(i);
    json.Key("parent").ValueExact(static_cast<double>(s.parent));
    json.Key("request").ValueExact(static_cast<double>(s.request));
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("displayTimeUnit").Value("ms");
  json.EndObject();
  return json.str();
}

}  // namespace latte::bench
