#include "common/logging.hh"

#include <cstdarg>
#include <cstdio>

namespace pcmscrub {

namespace {

void
vprint(std::FILE *stream, const char *prefix, const char *fmt,
       std::va_list args)
{
    // One locked write per message: warnings from concurrent shard
    // tasks must not interleave mid-line.
    flockfile(stream);
    std::fputs(prefix, stream);
    std::vfprintf(stream, fmt, args);
    std::fputc('\n', stream);
    funlockfile(stream);
}

} // namespace

void
inform(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint(stdout, "info: ", fmt, args);
    va_end(args);
}

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint(stderr, "warn: ", fmt, args);
    va_end(args);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint(stderr, "fatal: ", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    vprint(stderr, "panic: ", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace pcmscrub
