#include "soidom/batch/journal.hpp"

#include <fstream>

#include "soidom/base/fileio.hpp"
#include "soidom/base/hash.hpp"
#include "soidom/base/jsonl.hpp"
#include "soidom/base/strings.hpp"
#include "soidom/guard/fault.hpp"

namespace soidom {
namespace {

bool parse_status(const std::string& text, JobStatus* out) {
  if (text == "ok") *out = JobStatus::kOk;
  else if (text == "failed") *out = JobStatus::kFailed;
  else if (text == "quarantined") *out = JobStatus::kQuarantined;
  else return false;
  return true;
}

}  // namespace

std::string job_record_fields_json(const JobRecord& r) {
  return format(
      R"("job":"%s","status":"%s","attempts":%d,"ladder":"%s",)"
      R"("code":"%s","stage":"%s","message":"%s","summary":"%s",)"
      R"("lint_errors":%d,"lint_warnings":%d,)"
      R"("analyzer_errors":%d,"analyzer_warnings":%d,)"
      R"("prove_confirmed":%d,"prove_refuted":%d,"prove_unknown":%d)",
      json_escape(r.job).c_str(), job_status_name(r.status), r.attempts,
      json_escape(r.ladder).c_str(), json_escape(r.code).c_str(),
      json_escape(r.stage).c_str(), json_escape(r.message).c_str(),
      json_escape(r.summary).c_str(), r.lint_errors, r.lint_warnings,
      r.analyzer_errors, r.analyzer_warnings, r.prove_confirmed,
      r.prove_refuted, r.prove_unknown);
}

bool parse_job_record_fields(std::string_view line, JobRecord* out) {
  JobRecord r;
  std::string status;
  if (!json_find_string(line, "job", &r.job) || r.job.empty()) return false;
  if (!json_find_string(line, "status", &status) ||
      !parse_status(status, &r.status)) {
    return false;
  }
  json_find_int(line, "attempts", &r.attempts);
  json_find_string(line, "ladder", &r.ladder);
  json_find_string(line, "code", &r.code);
  json_find_string(line, "stage", &r.stage);
  json_find_string(line, "message", &r.message);
  json_find_string(line, "summary", &r.summary);
  json_find_int(line, "lint_errors", &r.lint_errors);
  json_find_int(line, "lint_warnings", &r.lint_warnings);
  json_find_int(line, "analyzer_errors", &r.analyzer_errors);
  json_find_int(line, "analyzer_warnings", &r.analyzer_warnings);
  json_find_int(line, "prove_confirmed", &r.prove_confirmed);
  json_find_int(line, "prove_refuted", &r.prove_refuted);
  json_find_int(line, "prove_unknown", &r.prove_unknown);
  *out = std::move(r);
  return true;
}

std::string job_record_line(const JobRecord& r) {
  if (r.status == JobStatus::kOk) {
    return format("%-12s ok       attempts=%d ladder=%s  %s", r.job.c_str(),
                  r.attempts, r.ladder.c_str(), r.summary.c_str());
  }
  return format("%-12s %-8s attempts=%d ladder=%s  %s: %s: %s", r.job.c_str(),
                job_status_name(r.status), r.attempts, r.ladder.c_str(),
                r.stage.c_str(), r.code.c_str(), r.message.c_str());
}

const char* job_status_name(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kQuarantined: return "quarantined";
  }
  return "unknown";
}

struct RunJournal::Impl {
  explicit Impl(const std::string& path, bool durable)
      : file(path, durable) {}
  AppendFile file;
};

RunJournal::RunJournal(const std::string& path, bool durable)
    : impl_(std::make_unique<Impl>(path, durable)) {}

RunJournal::~RunJournal() = default;

const std::string& RunJournal::path() const { return impl_->file.path(); }

void RunJournal::append_header(std::size_t num_jobs, bool isolate,
                               int max_attempts) {
  SOIDOM_FAULT_PROBE(FlowStage::kBatchJournal);
  impl_->file.append_line(jsonl_with_crc(format(
      R"({"type":"batch","schema":%d,"jobs":%zu,"isolate":%d,"max_attempts":%d})",
      kJournalSchema, num_jobs, isolate ? 1 : 0, max_attempts)));
}

void RunJournal::append_attempt(const std::string& job,
                                const AttemptRecord& a) {
  SOIDOM_FAULT_PROBE(FlowStage::kBatchJournal);
  std::string line = format(
      R"({"type":"attempt","job":"%s","attempt":%d,"ladder":"%s","ok":%d)",
      json_escape(job).c_str(), a.attempt, json_escape(a.ladder).c_str(),
      a.ok ? 1 : 0);
  if (a.diagnostic.has_value()) {
    line += format(R"(,"code":"%s","stage":"%s","message":"%s")",
                   error_code_name(a.diagnostic->code),
                   flow_stage_name(a.diagnostic->stage),
                   json_escape(a.diagnostic->message).c_str());
  }
  line += format(R"(,"ms":%.3f})", a.ms);
  impl_->file.append_line(jsonl_with_crc(line));
}

void RunJournal::append_done(const JobRecord& record) {
  SOIDOM_FAULT_PROBE(FlowStage::kBatchJournal);
  impl_->file.append_line(
      jsonl_with_crc(format(R"({"type":"done",%s,"ms":%.3f})",
                      job_record_fields_json(record).c_str(), record.ms)));
}

JournalLoad load_journal_checked(const std::string& path) {
  JournalLoad out;
  std::ifstream in(path, std::ios::binary);
  if (!in) return out;
  std::string line;
  int line_no = 0;
  auto skip = [&](const char* why) {
    ++out.corrupt_records;
    out.warnings.push_back(Diagnostic{
        ErrorCode::kParseError, FlowStage::kBatchJournal,
        format("journal %s line %d %s; record skipped", path.c_str(),
               line_no, why),
        {}});
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const JsonlCheck check = jsonl_check(line);
    if (check == JsonlCheck::kCorrupt) {
      skip("failed its CRC check (corrupt or torn mid-record)");
      continue;
    }
    if (check == JsonlCheck::kNoCrc && out.schema >= 2) {
      // A schema>=2 writer checksums every line, so an unchecksummed one
      // is a torn write (or foreign edit), not a legacy record.
      skip("has no checksum (torn write)");
      continue;
    }
    std::string type;
    if (!json_find_string(line, "type", &type)) continue;
    if (type == "batch") {
      int schema = 1;
      if (json_find_int(line, "schema", &schema)) out.schema = schema;
      continue;
    }
    if (type != "done") continue;
    JobRecord r;
    if (!parse_job_record_fields(line, &r)) continue;
    out.records[r.job] = r;  // last record per job wins
  }
  return out;
}

std::map<std::string, JobRecord> load_journal(const std::string& path) {
  return load_journal_checked(path).records;
}

std::string manifest_json(const std::map<std::string, JobRecord>& records) {
  int ok = 0;
  int failed = 0;
  int quarantined = 0;
  std::string jobs;
  for (const auto& [name, r] : records) {  // std::map: sorted by job key
    switch (r.status) {
      case JobStatus::kOk: ++ok; break;
      case JobStatus::kFailed: ++failed; break;
      case JobStatus::kQuarantined: ++quarantined; break;
    }
    if (!jobs.empty()) jobs += ",\n  ";
    jobs += '{';
    jobs += job_record_fields_json(r);
    jobs += '}';
  }
  const std::string body =
      jobs.empty() ? "[]" : format("[\n  %s\n]", jobs.c_str());
  return format(
      "{\"schema\":\"soidom-batch-manifest-1\",\"total\":%zu,"
      "\"ok\":%d,\"failed\":%d,\"quarantined\":%d,\"jobs\":%s}\n",
      records.size(), ok, failed, quarantined, body.c_str());
}

void write_manifest(const std::map<std::string, JobRecord>& records,
                    const std::string& path) {
  SOIDOM_FAULT_PROBE(FlowStage::kBatchJournal);
  write_file_atomic(path, manifest_json(records));
}

}  // namespace soidom
