/// \file campaign_wire.hpp
/// Text wire format of the process-parallel campaign backend — the work
/// order (`caft-campaign-work v4`) a coordinator sends to one worker
/// process and the partial result (`caft-campaign-partial v1`) the worker
/// sends back (see api/session.hpp) — and the line codec every `caft-*`
/// campaign document is written and read with (namespace wire; its readers
/// scan each line with one string_view cursor, wire::Fields).
/// docs/wire-protocols.md is the normative layout of every document.
///
/// The partial carries per-replay records, not merged fold states: P²
/// quantiles and Welford moments are order-sensitive folds, so the
/// coordinator re-folds the records in canonical order
/// (docs/determinism.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "campaign/campaign.hpp"
#include "common/check.hpp"

namespace ftsched {

/// The building blocks every `caft-*` campaign document shares, the
/// campaign server's (src/server/server_wire.hpp) included. Everything
/// throws caft::CheckError on malformed input.
namespace wire {

/// Longest line, in bytes without its `\n`, that any campaign document
/// reader accepts. A protocol constant, not an option: readers check it
/// before buffering more of a line, so a peer cannot grow a reader's
/// memory by withholding a newline. (The instance payload is not a line;
/// it is read in bounded chunks.)
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// Doubles as C hexadecimal float literals ("0x1.8p+3", plus "inf"/"nan"):
/// bit-exact, locale-independent, and strtod parses them back natively.
[[nodiscard]] std::string format_double(double value);
/// Any strtod literal that fills the whole token: "0x", "nan(" and a token
/// with an embedded NUL throw. `token` must be followed by whitespace or a
/// NUL, as every Fields token of a std::string line is.
[[nodiscard]] double parse_double(std::string_view token, const char* what);
/// Strict non-negative decimal integer ("12x", "", "+1", "-3" and values
/// past 2^64 − 1 all throw).
[[nodiscard]] std::uint64_t parse_u64(std::string_view token,
                                      const char* what);
/// Strict 0|1 flag.
[[nodiscard]] bool parse_bool(std::string_view token, const char* what);
/// `text` in single quotes for a diagnostic: a byte outside printable
/// ASCII, or a backslash, as `\xHH`, and at most its first 64 bytes, then
/// `...` and its length. A NUL or a control byte in the input then never
/// cuts a message short or reaches a terminal raw, and a 1 MiB line is not
/// echoed whole.
[[nodiscard]] std::string quote(std::string_view text);

/// The unread rest of the line a reader holds. next() returns its next
/// token, empty once it is exhausted, splitting on C-locale whitespace
/// (' ', '\t' … '\r') exactly as `operator>>` does; NUL is not whitespace.
struct Fields {
  std::string_view rest;
  [[nodiscard]] std::string_view next();
};
/// The next token of `line`; throws when it is exhausted.
[[nodiscard]] std::string_view next_token(Fields& line, const char* what);

/// Validates a document's first line against `<magic> v<version>`. A
/// matching magic at any other version gets its own diagnostic, naming the
/// version this reader speaks: a peer of another generation must be told
/// to match versions, not to debug corruption.
void check_magic_line(const std::string& line, const char* magic,
                      int version = 1);
/// Reads and checks the magic line of `is` (kMaxLineBytes bound).
void expect_magic(std::istream& is, const char* magic, int version = 1);

/// `instance-bytes <n>`, then exactly n raw bytes: the instance payload of
/// the work order and the server request.
void write_instance_bytes(std::ostream& os, const std::string& bytes);
/// Reads the payload of an `instance-bytes` line (key already pulled off
/// `fields`) from `is` in bounded chunks; throws on an empty or short
/// payload.
[[nodiscard]] std::string read_instance_bytes(Fields& fields,
                                              std::istream& is,
                                              const char* document);

// --- The line codec
//
// Each keyed line is declared once, as `d.line(key, fields...)` in a
// document body (a callable that hands its lines to `d`). A BodyWriter
// writes the lines in declaration order; a BodyReader parses an incoming
// line into the declaration its key names. A field's name in error
// messages is its line's key.

static_assert(std::is_same_v<std::size_t, std::uint64_t>,
              "counts and u64 fields share one codec");

/// A field written as one name of a fixed table: enums, and "-" for an
/// unset optional.
template <class T>
struct Name {
  const char* name;
  T value;
};
template <class T>
struct Named {
  T& value;
  std::span<const Name<std::remove_const_t<T>>> names;
};
/// The rest of the line after the key's separating space, spaces and all.
template <class S>
struct Rest {
  S& text;
};
/// A field named `what` in error messages instead of its line's key.
template <class T>
struct Field {
  T& value;
  const char* what;
};

/// Writes one field as " <token>": decimal counts, 0|1 flags, hexfloat
/// doubles, tokens, "-" for an unset optional count, and a Welford state
/// as its count, mean, M2, min and max.
template <class T>
void write_field(std::ostream& os, const T& field) {
  if constexpr (std::is_same_v<T, bool>) {
    os << (field ? " 1" : " 0");
  } else if constexpr (std::is_same_v<T, double>) {
    os << ' ' << format_double(field);
  } else if constexpr (std::is_same_v<T, std::optional<std::size_t>>) {
    if (field.has_value()) return write_field(os, *field);
    os << " -";
  } else if constexpr (std::is_same_v<T, caft::StreamingMoments>) {
    write_field(os, field.count());
    for (const double state :
         {field.mean(), field.m2(), field.min(), field.max()})
      write_field(os, state);
  } else {
    os << ' ' << field;
  }
}
/// A counted list: `<n> <item>...`.
template <class T>
void write_field(std::ostream& os, const std::vector<T>& items) {
  write_field(os, items.size());
  for (const T& item : items) write_field(os, item);
}
template <class T>
void write_field(std::ostream& os, Named<T> field) {
  for (const auto& entry : field.names)
    if (entry.value == field.value)
      return write_field(os, std::string(entry.name));
  throw caft::CheckError("campaign wire: value without a wire name");
}
template <class S>
void write_field(std::ostream& os, Rest<S> field) {
  write_field(os, field.text);
}
template <class T>
void write_field(std::ostream& os, Field<T> field) {
  write_field(os, field.value);
}

/// Parses one field, in write_field's form, off `line`.
template <class T>
void read_field(Fields& line, const char* what, T& field) {
  if constexpr (std::is_same_v<T, caft::StreamingMoments>) {
    std::size_t count = 0;
    double state[4];  // mean, m2, min, max
    read_field(line, what, count);
    for (double& value : state) read_field(line, what, value);
    field = caft::StreamingMoments::restore(count, state[0], state[1],
                                            state[2], state[3]);
  } else {
    const std::string_view token = next_token(line, what);
    if constexpr (std::is_same_v<T, bool>)
      field = parse_bool(token, what);
    else if constexpr (std::is_same_v<T, double>)
      field = parse_double(token, what);
    else if constexpr (std::is_same_v<T, std::string>)
      field = token;
    else if constexpr (std::is_same_v<T, std::uint64_t>)
      field = parse_u64(token, what);
    else if (token == "-")
      field.reset();
    else
      field = parse_u64(token, what);
  }
}
/// The count is the peer's claim, not a budget: nothing is reserved, and a
/// missing item throws before the list outgrows its line.
template <class T>
void read_field(Fields& line, const char* what, std::vector<T>& items) {
  std::size_t n = 0;
  read_field(line, what, n);
  items.clear();
  for (; n > 0; --n) read_field(line, what, items.emplace_back());
}
template <class T>
void read_field(Fields& line, const char* what, Named<T> field) {
  const std::string_view token = next_token(line, what);
  for (const auto& entry : field.names)
    if (token == entry.name) {
      field.value = entry.value;
      return;
    }
  throw caft::CheckError(std::string("campaign wire: unknown ") + what +
                         " " + quote(token));
}
void read_field(Fields& line, const char* what, Rest<std::string> field);
template <class T>
void read_field(Fields& line, const char*, Field<T> field) {
  read_field(line, field.what, field.value);
}
/// Throws when `line` carries a field past the layout of its `key`.
void end_of_line(Fields& line, std::string_view key);

/// Parses the fields of a line whose `key` was already pulled off `line`.
template <class... F>
void read_fields(Fields& line, const char* key, F&&... fields) {
  (read_field(line, key, std::forward<F>(fields)), ...);
  end_of_line(line, key);
}

/// The one line source of every pull reader. A line longer than
/// kMaxLineBytes throws once it passes the cap, naming the cap and the
/// document, not the line.
struct LineReader {
  LineReader(std::istream& in, const char* name) : is(&in), document(name) {}
  /// Reads the next line into `line`; false at end of stream.
  [[nodiscard]] bool next_line();
  /// Reads the next non-empty line, split into `key` and the `fields`
  /// after it; false at end of stream. A whitespace-only line has an empty
  /// key, which no declaration names.
  [[nodiscard]] bool next_keyed();

  std::istream* is;
  const char* document;
  std::string line;
  std::string_view key;  ///< views `line`
  Fields fields;         ///< views `line`
};

/// Writes a document body: every declared line, in declaration order.
class BodyWriter {
 public:
  explicit BodyWriter(std::ostream& os) : os_(&os) {}

  /// A line that appears exactly once.
  template <class... F>
  void line(const char* keyword, const F&... fields) {
    *os_ << keyword;
    (write_field(*os_, fields), ...);
    *os_ << '\n';
  }
  /// A line that appears at most once: when `present`.
  template <class... F>
  void optional(const char* key, bool present, const F&... fields) {
    if (present) line(key, fields...);
  }
  /// One line per element of `items`; `fields(item)` ties its fields.
  template <class Items, class Fields>
  void each(const char* key, const Items& items, const Fields& fields) {
    for (const auto& item : items)
      std::apply([&](const auto&... f) { line(key, f...); }, fields(item));
  }
  /// The `instance-bytes` line and its payload.
  void instance_bytes(const std::string& bytes) {
    write_instance_bytes(*os_, bytes);
  }
  /// Per element: its `key` line (`header(item)` ties the fields), its
  /// `body(d, item)` lines, then the line `end_key`.
  template <class T, class Header, class Body>
  void group(const char* key, const char* end_key,
             const std::vector<T>& items, const Header& header,
             const Body& body) {
    for (const T& item : items) {
      each(key, std::span(&item, 1), header);
      body(*this, item);
      *os_ << end_key << '\n';
    }
  }

 private:
  std::ostream* os_;
};

/// Reads a document body, one dispatch() per line; a second copy of a
/// once-only line is malformed. At most 64 declarations per body.
class BodyReader {
 public:
  explicit BodyReader(const char* document, LineReader* in = nullptr)
      : document_(document), in_(in) {}

  /// Parses the line keyed `key` through the declarations of
  /// `body(*this)`; false when none names the key.
  template <class Body>
  [[nodiscard]] bool dispatch(std::string_view key, Fields& fields,
                              const Body& body) {
    key_ = key;
    fields_ = &fields;
    index_ = 0;
    matched_ = false;
    body(*this);
    return matched_;
  }
  /// Throws unless every once-only line of `body` has arrived.
  template <class Body>
  void finish(const Body& body) {
    fields_ = nullptr;
    index_ = 0;
    body(*this);
  }

  template <class... F>
  void line(const char* key, F&&... fields) {
    if (take(key, Occurs::kOnce))
      read_fields(*fields_, key, std::forward<F>(fields)...);
  }
  template <class... F>
  void optional(const char* key, bool& present, F&&... fields) {
    if (!take(key, Occurs::kOptional)) return;
    read_fields(*fields_, key, std::forward<F>(fields)...);
    present = true;
  }
  /// True when it took the line, parsed into a new items.back().
  template <class T, class Fields>
  bool each(const char* key, std::vector<T>& items, const Fields& fields) {
    if (!take(key, Occurs::kEach)) return false;
    std::apply([&](auto&... f) { read_fields(*fields_, key, f...); },
               fields(items.emplace_back()));
    return true;
  }
  void instance_bytes(std::string& bytes);
  template <class T, class Header, class Body>
  void group(const char* key, const char* end_key, std::vector<T>& items,
             const Header& header, const Body& body);

 private:
  enum class Occurs { kOnce, kOptional, kEach };
  /// Counts the declaration; true when it names the line being dispatched.
  bool take(const char* key, Occurs occurs);

  const char* document_;
  LineReader* in_;
  std::string_view key_;
  Fields* fields_ = nullptr;  ///< null inside finish()
  std::size_t index_ = 0;
  bool matched_ = false;
  std::uint64_t seen_ = 0;
};

/// The framing of every pull reader: dispatches the lines of `in` (empty
/// ones skipped) through `body` up to a line keyed by one of `ends`, whose
/// index it returns; the rest of that line stays in `in.fields`. Throws on
/// an unknown key, a missing once-only line, and a stream that ends first.
template <class Body>
std::size_t read_lines(LineReader& in,
                       std::initializer_list<std::string_view> ends,
                       const Body& body) {
  BodyReader reader(in.document, &in);
  while (in.next_keyed()) {
    for (std::size_t end = 0; end < ends.size(); ++end)
      if (in.key == ends.begin()[end]) {
        reader.finish(body);
        return end;
      }
    CAFT_CHECK_MSG(reader.dispatch(in.key, in.fields, body),
                   std::string("campaign wire: unknown ") + in.document +
                       " key " + quote(in.key));
  }
  throw caft::CheckError(std::string("campaign wire: truncated ") +
                         in.document + " (no '" +
                         std::string(*ends.begin()) + "')");
}

/// read_lines up to a terminator line that is its key alone (`end`,
/// `end-run`).
template <class Body>
std::size_t read_body(LineReader& in,
                      std::initializer_list<std::string_view> ends,
                      const Body& body) {
  const std::size_t end = read_lines(in, ends, body);
  end_of_line(in.fields, in.key);
  return end;
}

template <class T, class Header, class Body>
void BodyReader::group(const char* key, const char* end_key,
                       std::vector<T>& items, const Header& header,
                       const Body& body) {
  if (each(key, items, header))
    (void)read_body(*in_, {end_key}, [&](auto& d) { body(d, items.back()); });
}

/// Writes a whole document: its magic line, its body, then `end`.
template <class Body>
void write_document(std::ostream& os, const char* magic, int version,
                    const Body& body) {
  os << magic << " v" << version << '\n';
  BodyWriter d(os);
  body(d);
  os << "end\n";
}

/// Reads a whole document: its magic line, then its body up to `end`.
template <class Body>
void read_document(std::istream& is, const char* magic, int version,
                   const char* document, const Body& body) {
  expect_magic(is, magic, version);
  LineReader in(is, document);
  (void)read_body(in, {"end"}, body);
}

/// The CampaignSpec lines the work order and the server request share:
/// `replays` … `exact` (spec_lines), then `sampler` and `request`
/// (schedule_lines); each document adds its own lines between the two.
template <class D, class Spec>
void spec_lines(D& d, Spec& spec);
template <class D, class Spec>
void schedule_lines(D& d, Spec& spec);
/// The `request` line alone (the server's cache key encodes it).
void write_request_line(std::ostream& os, const ScheduleRequest& request);

}  // namespace wire

/// One unit of subprocess campaign work: replay the contiguous canonical
/// scenario block [first, first + count) of `spec`'s campaign against the
/// schedule `algorithm` produces on the carried instance.
struct CampaignWorkOrder {
  std::string instance_bytes;  ///< io/instance_io text the worker loads
  std::string algorithm;       ///< registry name the worker re-schedules
  std::size_t first = 0;
  std::size_t count = 0;
  /// The declarative campaign. The coordinator pins request.eps /
  /// request.model to the values its own scheduling run resolved.
  CampaignSpec spec;
  std::size_t threads = 1;  ///< the worker's thread budget (summary-neutral)
  /// Determinism pins: the coordinator's 0-crash makespan and horizon. A
  /// worker whose re-scheduled values differ bit-for-bit refuses to run.
  /// NaN = don't check (hand-written orders).
  double expect_makespan = std::numeric_limits<double>::quiet_NaN();
  double expect_horizon = std::numeric_limits<double>::quiet_NaN();
};

/// Worker-side wall-clock breakdown of one block (steady_clock seconds):
/// observability only, never folded, and optional on the wire.
struct WorkerTiming {
  bool present = false;           ///< the wire carried a timing line
  double wall_seconds = 0.0;      ///< whole worker invocation
  double schedule_seconds = 0.0;  ///< instance load + re-schedule + pins
  double replay_seconds = 0.0;    ///< run_campaign_block proper
};

/// One block's fold inputs plus its mergeable fold state and telemetry.
struct CampaignPartialResult {
  std::string algorithm;
  std::size_t first = 0;
  std::size_t count = 0;
  std::size_t successes = 0;  ///< Wilson inputs: (count, successes)
  std::vector<caft::ReplayRecord> records;  ///< canonical replay order
  caft::CampaignTelemetry telemetry;
  WorkerTiming timing;  ///< optional worker-side timings (observability)
};

void write_campaign_work_order(std::ostream& os,
                               const CampaignWorkOrder& order);
/// Parses a work order; throws caft::CheckError on malformed input.
[[nodiscard]] CampaignWorkOrder read_campaign_work_order(std::istream& is);

/// Parses a partial result (CampaignPartialReader fed the whole stream).
[[nodiscard]] CampaignPartialResult read_campaign_partial(std::istream& is);

/// Chunked partial-result writer — the worker half of the streaming pipe:
/// the header (magic, algorithm, block, `records <count>`), the record
/// lines of each computed sub-block, then the footer (counts, telemetry,
/// timing, end), so records leave the worker before the block finishes.
void write_campaign_partial_header(std::ostream& os,
                                   const std::string& algorithm,
                                   std::size_t first, std::size_t count);
void write_campaign_partial_records(
    std::ostream& os, const caft::ReplayRecord* records, std::size_t count);
void write_campaign_partial_footer(std::ostream& os, std::size_t records,
                                   std::size_t successes,
                                   const caft::CampaignTelemetry& telemetry,
                                   const WorkerTiming& timing);

/// Incremental partial-result parser — the coordinator half of the
/// streaming pipe. Feed it a worker's stdout as it arrives, in any
/// chunking; it parses complete lines at once and holds at most
/// kMaxLineBytes of an incomplete one. It rejects a record list that
/// disagrees with the `counts` line or the block, a `records` header that
/// disagrees with the block, and a block whose `first + count` overflows.
class CampaignPartialReader {
 public:
  /// Never throws: a malformed document latches an error and later input
  /// is discarded (the poll loop must keep draining the child).
  void feed(const char* data, std::size_t size) noexcept;

  /// True once a parse error has been latched; take() will throw it.
  [[nodiscard]] bool failed() const { return !error_.empty(); }

  /// Validates the whole document and returns it, or throws the latched
  /// or final error. Call exactly once, after the last feed().
  [[nodiscard]] CampaignPartialResult take();

 private:
  void consume_line(const std::string& line);
  void fail(const std::string& why) noexcept;
  /// Hands the partial's keyed lines to `d`.
  void body(wire::BodyReader& d);

  CampaignPartialResult partial_;
  wire::BodyReader lines_{"partial"};
  std::string buffer_;  ///< bytes of the current (incomplete) line
  std::string error_;   ///< first latched parse error, empty = ok
  bool saw_magic_ = false;
  bool saw_end_ = false;
  bool saw_block_ = false;
  bool saw_records_ = false;
  std::size_t records_expected_ = 0;  ///< from the `records` header line
  std::size_t declared_records_ = 0;  ///< from the `counts` line
  std::size_t declared_successes_ = 0;
};

}  // namespace ftsched
