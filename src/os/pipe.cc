#include "os/pipe.hh"

#include <algorithm>
#include <cassert>

#include "snapshot/serializer.hh"

namespace
{

void
saveWaiters(dlsim::snapshot::Serializer &s,
            const std::vector<std::uint32_t> &w)
{
    s.u32(static_cast<std::uint32_t>(w.size()));
    for (const auto tid : w)
        s.u32(tid);
}

void
loadWaiters(dlsim::snapshot::Deserializer &d,
            std::vector<std::uint32_t> &w)
{
    w.resize(d.count(4));
    for (auto &tid : w)
        tid = d.u32();
}

} // namespace

namespace dlsim::os
{

Pipe::Pipe(std::size_t capacity) : buf_(capacity)
{
    assert(capacity > 0);
}

std::size_t
Pipe::read(std::uint8_t *dst, std::size_t n)
{
    const std::size_t take = std::min(n, count_);
    for (std::size_t i = 0; i < take; ++i) {
        dst[i] = buf_[head_];
        head_ = (head_ + 1) % buf_.size();
    }
    count_ -= take;
    stats_.bytesRead += take;
    return take;
}

std::size_t
Pipe::write(const std::uint8_t *src, std::size_t n)
{
    if (closed_)
        return 0;
    const std::size_t put = std::min(n, freeSpace());
    std::size_t tail = (head_ + count_) % buf_.size();
    for (std::size_t i = 0; i < put; ++i) {
        buf_[tail] = src[i];
        tail = (tail + 1) % buf_.size();
    }
    count_ += put;
    stats_.bytesWritten += put;
    return put;
}

void
Pipe::save(snapshot::Serializer &s) const
{
    s.beginStruct("pipe");
    s.u64(buf_.size());
    s.u64(head_);
    s.u64(count_);
    s.boolean(closed_);
    s.u64(stats_.bytesWritten);
    s.u64(stats_.bytesRead);
    s.bytes(buf_.data(), buf_.size());
    saveWaiters(s, readWaiters_);
    saveWaiters(s, writeWaiters_);
    s.endStruct();
}

void
Pipe::load(snapshot::Deserializer &d)
{
    d.enterStruct("pipe");
    buf_.resize(d.count<std::uint64_t>(1));
    head_ = d.u64();
    count_ = d.u64();
    closed_ = d.boolean();
    stats_.bytesWritten = d.u64();
    stats_.bytesRead = d.u64();
    if (buf_.empty() || head_ >= buf_.size() ||
        count_ > buf_.size())
        d.fail("pipe geometry out of range");
    d.bytes(buf_.data(), buf_.size());
    loadWaiters(d, readWaiters_);
    loadWaiters(d, writeWaiters_);
    d.leaveStruct();
}

} // namespace dlsim::os
