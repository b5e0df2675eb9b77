#include "common/log.hpp"

#include <cstdarg>
#include <vector>

namespace spmrt {
namespace log {

std::string
format(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    if (len < 0) {
        va_end(args_copy);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(len));
}

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 8);
    for (char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

bool
writeText(const std::string &path, const std::string &text,
          const char *what)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        SPMRT_WARN("cannot write %s to %s", what, path.c_str());
        return false;
    }
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    bool closed = std::fclose(f) == 0;
    if (written != text.size() || !closed) {
        SPMRT_WARN("short write of %s to %s", what, path.c_str());
        return false;
    }
    return true;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    std::fflush(stderr);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace log
} // namespace spmrt
