#include "net/json.h"

#include <cstdio>

namespace htd::net {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\": \"" + JsonEscape(message) + "\"}\n";
  return response;
}

HttpResponse RetryLaterResponse(int status, const std::string& message,
                                int retry_after_seconds) {
  HttpResponse response = ErrorResponse(status, message);
  response.headers.emplace_back("Retry-After",
                                std::to_string(retry_after_seconds));
  return response;
}

}  // namespace htd::net
