/// \file protocol.hpp
/// Wire protocol of the mapping service (docs/SERVE.md): newline-
/// delimited JSON over a Unix-domain stream socket.  One request per
/// line, one response line per request, in order, per connection.
///
/// Requests:
///   {"type":"map","id":"r1","circuit":"c432","deadline_ms":5000}
///   {"type":"map","id":"r2","blif_path":"/path/to/x.blif"}
///   {"type":"stats","id":"s1"}   {"type":"ping","id":"p1"}
///
/// Responses:
///   {"type":"result","id":"r1","job":...}   — the full batch JobRecord
///     field set (journal.hpp job_record_fields_json), byte-compatible
///     with soidom_batch manifests so a client can assemble an identical
///     manifest offline.
///   {"type":"error","id":"r1","code":"...","stage":"...","message":...}
///     — structured rejection: "busy" backpressure (stage serve_accept),
///     drain ("cancelled"/serve_drain), malformed request ("parse_error").
///   {"type":"stats",...}, {"type":"pong",...}
///
/// The codec is shared by server and client (soidom_serve CLI) so both
/// sides agree by construction, and reuses the batch record field codec
/// for manifest byte-identity.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "soidom/batch/journal.hpp"

namespace soidom {

struct ServeRequest {
  enum class Kind : std::uint8_t { kMap, kStats, kPing };
  Kind kind = Kind::kMap;
  std::string id;         ///< echoed verbatim in the response
  std::string circuit;    ///< benchmark-registry name...
  std::string blif_path;  ///< ...or a BLIF file path (exactly one)
  std::int64_t deadline_ms = 0;  ///< per-request deadline; 0 = server default
};

/// Parse one request line.  On failure returns false and sets *error to
/// a human-readable reason (the server echoes it in an "error" response;
/// a malformed line never kills the connection).
bool parse_request(std::string_view line, ServeRequest* out,
                   std::string* error);

/// Serialize a request (client side).
std::string request_json(const ServeRequest& request);

/// {"type":"result","id":...,<JobRecord fields>}
std::string response_result(const std::string& id, const JobRecord& record);

/// {"type":"error","id":...,"code":...,"stage":...,"message":...}
std::string response_error(const std::string& id, const std::string& code,
                           const std::string& stage,
                           const std::string& message);

/// {"type":"stats","id":...,"cache":{...},"server":{...}}
std::string response_stats(const std::string& id,
                           const std::string& cache_json,
                           const std::string& server_json);

/// {"type":"pong","id":...}
std::string response_pong(const std::string& id);

/// Decoded response (client side).  For kind "result", `record` holds
/// the parsed JobRecord; for "error", code/stage/message are set.
struct ServeResponse {
  std::string kind;  ///< "result" | "error" | "stats" | "pong"
  std::string id;
  JobRecord record;
  std::string code;
  std::string stage;
  std::string message;
  std::string raw;  ///< the verbatim response line (stats payloads)
};

/// Parse one response line; false only when the line is not a
/// recognizable response object at all.
bool parse_response(std::string_view line, ServeResponse* out);

}  // namespace soidom
