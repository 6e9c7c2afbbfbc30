#include "xsp/trace/tracer.hpp"

namespace xsp::trace {

Span* Tracer::find_open(SpanId id) noexcept {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

SpanId Tracer::start_span(StrId span_name, TimePoint t, SpanId parent, SpanKind kind) {
  if (!enabled_) return kNoSpan;
  Span s;
  s.id = server_->next_span_id();
  s.parent = parent;
  s.level = level_;
  s.kind = kind;
  s.name = span_name;
  s.tracer = name_;
  s.begin = t;
  const SpanId id = s.id;
  open_.push_back(std::move(s));
  return id;
}

void Tracer::add_tag(SpanId id, StrId key, StrId value) {
  if (Span* s = find_open(id)) {
    if (!s->tags.set(key, value)) s->note_dropped();
  }
}

void Tracer::tag_inline(SpanId id, StrId key, std::string_view value) {
  if (Span* s = find_open(id)) {
    if (!s->inline_tags.set(key, value)) s->note_dropped();
  }
}

void Tracer::add_metric(SpanId id, StrId key, double value) {
  if (Span* s = find_open(id)) {
    if (!s->metrics.set(key, value)) s->note_dropped();
  }
}

void Tracer::set_correlation(SpanId id, std::uint64_t correlation_id) {
  if (Span* s = find_open(id)) s->correlation_id = correlation_id;
}

void Tracer::finish_span(SpanId id, TimePoint t) {
  Span* s = find_open(id);
  if (s == nullptr) return;
  s->end = t;
  server_->publish(*s);
  // Swap-erase: order of the open list is irrelevant.
  if (s != &open_.back()) *s = std::move(open_.back());
  open_.pop_back();
}

SpanId Tracer::publish_completed(Span span) {
  if (!enabled_) return kNoSpan;
  span.id = server_->next_span_id();
  span.tracer = name_;
  span.level = level_;
  const SpanId id = span.id;
  server_->publish(span);
  return id;
}

void Tracer::publish_completed(SpanBatches&& batches) {
  if (enabled_) {
    for (SpanBatch& batch : batches) {
      for (Span& span : batch) {
        span.id = server_->next_span_id();
        span.tracer = name_;
        span.level = level_;
      }
      server_->publish_batch(std::move(batch));
    }
  }
  batches.clear();
}

}  // namespace xsp::trace
