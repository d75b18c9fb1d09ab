/// \file journal.hpp
/// Crash-safe run journal for the batch flow runner.
///
/// The journal is an append-only JSONL file: one self-contained JSON
/// object per line, appended with a single write(2) plus fsync
/// (base/fileio.hpp AppendFile), so a SIGKILL at any instant tears at
/// most the final line.  The loader ignores a trailing partial line and
/// any record type it does not recognize, which makes the format
/// forward-extensible.
///
/// Record types (docs/BATCH.md has the full field tables):
///
///   {"type":"batch", ...}    informational run header
///   {"type":"attempt", ...}  one attempt of one job (ladder step, outcome)
///   {"type":"done", ...}     terminal state of one job — the records
///                            --resume and the manifest are built from
///
/// Since schema 2 the header carries "schema":2 and every record ends
/// with a "crc" field: the CRC-32 (base/hash.hpp) of the line text up to
/// that field.  The loader verifies checksums wherever they appear, so a
/// record torn *mid-line* by a crash (not just at the end) or corrupted
/// at rest is detected, skipped, and reported as a structured warning —
/// it can no longer be half-parsed into a bogus terminal state.  Journals
/// written before schema 2 (no header schema, no crc fields) still load;
/// they just keep the weaker ignore-unparsable-lines behavior.
///
/// Wall-clock timings ("ms") appear only in the journal, never in the
/// manifest: the manifest is a pure function of the deterministic job
/// outcomes, so an interrupted-then-resumed run produces a manifest
/// byte-identical to an uninterrupted one.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "soidom/guard/diagnostic.hpp"

namespace soidom {

/// Terminal state of one batch job.
enum class JobStatus : std::uint8_t {
  kOk,           ///< a ladder attempt produced a verified mapping
  kFailed,       ///< deterministic failure (parse error, bad options, ...)
  kQuarantined,  ///< crash / hang / injected-fault class after the retry
                 ///< budget; the job is set aside, the batch continues
};

const char* job_status_name(JobStatus status);

/// One attempt of one job, as recorded in the journal.
struct AttemptRecord {
  int attempt = 1;            ///< 1-based
  std::string ladder;         ///< degradation-ladder step name
  bool ok = false;
  std::optional<Diagnostic> diagnostic;  ///< set when !ok
  double ms = 0.0;            ///< journal-only (nondeterministic)
};

/// Terminal record of one job: everything the manifest needs, all of it
/// deterministic except `ms`.
struct JobRecord {
  std::string job;            ///< circuit name or BLIF path (unique key)
  JobStatus status = JobStatus::kFailed;
  int attempts = 0;           ///< attempts consumed
  std::string ladder;         ///< ladder step of the final attempt
  std::string code;           ///< error_code_name of the final diagnostic
  std::string stage;          ///< flow_stage_name of the final diagnostic
  std::string message;        ///< final diagnostic message ("" when ok)
  std::string summary;        ///< summarize(FlowResult) ("" when failed)
  int lint_errors = 0;
  int lint_warnings = 0;
  /// Waiver-respecting error/warning counts from the optional analyzer
  /// stages (CSA + race), so journal / resumed-manifest consumers see
  /// analyzer findings without re-running the flow.
  int analyzer_errors = 0;
  int analyzer_warnings = 0;
  /// Proof-tier verdict counts (FlowOptions::prove runs).  All zero when
  /// the flow ran without the prove stage.  Deterministic: the proof
  /// statuses are byte-identical across thread counts and --resume.
  int prove_confirmed = 0;
  int prove_refuted = 0;
  int prove_unknown = 0;
  double ms = 0.0;            ///< journal-only (nondeterministic)
};

/// Append-side handle.  Every append goes through the kBatchJournal
/// fault probe; an injected (or real) journal-write failure throws and
/// the runner aborts the batch cleanly — better to stop than to run
/// jobs whose completion cannot be recorded.
class RunJournal {
 public:
  /// Opens `path` for appending, creating it if needed.
  explicit RunJournal(const std::string& path, bool durable = true);
  ~RunJournal();

  void append_header(std::size_t num_jobs, bool isolate, int max_attempts);
  void append_attempt(const std::string& job, const AttemptRecord& attempt);
  void append_done(const JobRecord& record);

  const std::string& path() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The current journal schema version written by RunJournal.
inline constexpr int kJournalSchema = 2;

/// Result of a checked journal load: the terminal records plus
/// structured warnings for every record the loader had to skip
/// (CRC mismatch, or a missing checksum in a schema>=2 journal).
struct JournalLoad {
  std::map<std::string, JobRecord> records;
  std::vector<Diagnostic> warnings;  ///< one per skipped record
  int schema = 1;                    ///< from the latest run header
  int corrupt_records = 0;           ///< lines skipped for integrity
};

/// Parse the terminal ("done") records of a journal file; the last
/// record per job wins.  A missing file yields an empty map.  Records
/// with checksums are verified; a corrupt or (in a schema>=2 journal)
/// torn record is skipped and reported in `warnings` instead of being
/// half-parsed or silently dropped.
JournalLoad load_journal_checked(const std::string& path);

/// Records-only convenience wrapper around load_journal_checked.
std::map<std::string, JobRecord> load_journal(const std::string& path);

/// The deterministic fields of one "done" record / manifest entry, as a
/// brace-less JSON fragment.  Shared by the journal, the manifest, and
/// the serve wire protocol (serve/protocol.hpp) so a record round-trips
/// byte-identically across all three surfaces.
std::string job_record_fields_json(const JobRecord& r);

/// Inverse of job_record_fields_json over a flat JSON line.  Returns
/// false when the mandatory job/status fields are missing or invalid.
bool parse_job_record_fields(std::string_view line, JobRecord* out);

/// The one-line text form the CLIs print per finished job (no newline):
/// "<job> ok attempts=N ladder=STEP  <summary>" when ok, else
/// "<job> <status> attempts=N ladder=STEP  <stage>: <code>: <message>".
std::string job_record_line(const JobRecord& r);

/// Render the deterministic merged manifest for `records` (sorted by
/// job key; "ms" excluded).
std::string manifest_json(const std::map<std::string, JobRecord>& records);

/// Write manifest_json atomically to `path` (write-temp-fsync-rename).
void write_manifest(const std::map<std::string, JobRecord>& records,
                    const std::string& path);

}  // namespace soidom
