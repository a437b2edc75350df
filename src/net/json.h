// Tiny JSON response helpers shared by the transport (net/server.cc) and
// the HTTP front-ends (net/decomposition_server.cc, net/shard_router.cc),
// so error bodies and escaping behave identically on every layer and on
// both sides of a proxy hop.
#pragma once

#include <string>

#include "net/http.h"

namespace htd::net {

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters as \uXXXX).
std::string JsonEscape(const std::string& text);

/// The canonical error body: {"error": "<message>"} with the given status.
HttpResponse ErrorResponse(int status, const std::string& message);

/// An error the client should retry: the error body plus a Retry-After
/// header (load shedding, an endpoint backing off).
HttpResponse RetryLaterResponse(int status, const std::string& message,
                                int retry_after_seconds);

}  // namespace htd::net
