// koptlog_audit — post-hoc orphan audit: replays a JSONL protocol-event
// trace (koptlog_sim --trace-out, or any conforming producer) and
// re-verifies the paper's guarantees from the events alone — no oracle, no
// access to the run:
//   * no committed output depends, transitively, on a state interval later
//     announced lost (Theorems 1-3), and
//   * every send-buffer release honored its K bound (Theorem 4),
// plus incarnation accounting and stream sanity (see src/obs/live_audit.h).
// Violations cite the offending event by its stable id:
//   P1#999999 t=99999999: output 1:999999 committed with dead dependency ...
//
//   koptlog_sim --n 6 --failures 2 --trace-out run.jsonl
//   koptlog_audit run.jsonl
//
// Traces written by a live collector can end mid-line (crash, kill -9, or
// simply a write racing this reader). A torn final line is reported but is
// never a failure on its own — only schema errors in the body or real
// invariant violations are.
//
// Both modes feed the same online auditor (the one koptlog_sim --live-audit
// runs in-process). --follow tails a growing file and exits nonzero the
// moment a violation appears; it stops once the file has been idle for
// --idle-timeout-ms.
//
// Exit status: 0 clean, 1 schema errors or invariant violations, 2 usage.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/audit.h"
#include "obs/live_audit.h"
#include "obs/trace_io.h"

using namespace koptlog;

namespace {

struct Options {
  bool parse_only = false;
  bool quiet = false;
  bool follow = false;
  int64_t idle_timeout_ms = 3000;
};

[[noreturn]] void usage() {
  std::cout
      << "usage: koptlog_audit [options] TRACE.jsonl\n"
      << "  --parse-only          validate the JSONL schema only; skip the "
         "audit\n"
      << "  --quiet               print nothing on success\n"
      << "  --follow              tail a growing trace, auditing online; "
         "exits 1\n"
      << "                        on the first violation (cites the event "
         "id)\n"
      << "  --idle-timeout-ms N   stop following after N ms without growth "
         "(3000)\n"
      << "  -                     read the trace from stdin\n";
  std::exit(2);
}

// Lists up to 20 items, then how many more there are.
void print_capped(const std::vector<std::string>& items) {
  size_t shown = 0;
  for (const std::string& item : items) {
    if (++shown > 20) {
      std::cerr << "  ... (" << items.size() - 20 << " more)\n";
      break;
    }
    std::cerr << "  " << item << "\n";
  }
}

int print_errors(const std::string& path,
                 const std::vector<std::string>& errors) {
  std::cerr << "koptlog_audit: " << errors.size() << " schema error(s) in "
            << path << ":\n";
  print_capped(errors);
  return 1;
}

// One parse-and-audit path for both modes: the streaming parser feeds the
// online auditor as lines complete. Batch mode reads to end of input once;
// --follow keeps polling for growth and stops at the first schema error or
// violation.
int audit_stream(std::istream& in, const std::string& path,
                 const Options& opt) {
  // n isn't known until the meta header parses, so the auditor is sized on
  // the first event (events only flow after the header). A schema error
  // fails the run anyway, so auditing stops there.
  std::unique_ptr<LiveAudit> audit;
  StreamingTraceParser parser([&](const ProtocolEvent& e) {
    if (opt.parse_only || !parser.errors().empty()) return;
    if (audit == nullptr) audit = std::make_unique<LiveAudit>(parser.n());
    audit->on_event(e);
  });

  using Clock = std::chrono::steady_clock;
  auto last_growth = Clock::now();
  char buf[1 << 16];
  for (;;) {
    bool grew = false;
    while (in.read(buf, sizeof buf), in.gcount() > 0) {
      grew = true;
      parser.feed(std::string_view(buf, static_cast<size_t>(in.gcount())));
      if (!opt.follow) continue;
      if (!parser.errors().empty()) return print_errors(path, parser.errors());
      if (audit != nullptr && !audit->ok()) {
        std::cerr << "koptlog_audit: VIOLATION after " << audit->events_seen()
                  << " events:\n  " << audit->first_violation() << "\n";
        return 1;
      }
    }
    if (!opt.follow) break;
    if (grew) {
      last_growth = Clock::now();
    } else if (Clock::now() - last_growth >
               std::chrono::milliseconds(opt.idle_timeout_ms)) {
      break;
    }
    in.clear();  // drop eofbit so the next read sees appended bytes
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  parser.finish();
  if (!parser.errors().empty()) return print_errors(path, parser.errors());
  if (!parser.torn_tail().empty()) {
    std::cerr << "koptlog_audit: warning: " << path << " ends mid-line ("
              << parser.torn_tail().size()
              << " bytes of torn final line ignored)\n";
  }
  if (!parser.have_meta()) {
    std::cerr << "koptlog_audit: " << path << ": no meta header seen\n";
    return 1;
  }
  if (opt.parse_only) {
    if (!opt.quiet)
      std::cout << "schema OK: " << parser.events_parsed() << " events, n="
                << parser.n() << "\n";
    return 0;
  }
  if (audit == nullptr) audit = std::make_unique<LiveAudit>(parser.n());
  AuditReport rep = audit->report();
  if (!rep.ok()) {
    std::cerr << rep.summary() << "\n";
    print_capped(rep.violations);
    return 1;
  }
  if (!opt.quiet) std::cout << rep.summary() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string f = argv[i];
    if (f == "--parse-only") opt.parse_only = true;
    else if (f == "--quiet") opt.quiet = true;
    else if (f == "--follow") opt.follow = true;
    else if (f == "--idle-timeout-ms" && i + 1 < argc)
      opt.idle_timeout_ms = std::stoll(argv[++i]);
    else if (f == "--help" || f == "-h") usage();
    else if (!path.empty()) usage();
    else path = f;
  }
  if (path.empty()) usage();
  if (opt.follow && (path == "-" || opt.parse_only)) usage();

  if (path == "-") return audit_stream(std::cin, path, opt);
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "koptlog_audit: cannot open " << path << "\n";
    return 2;
  }
  return audit_stream(file, path, opt);
}
