#include "os/socket.hh"

#include "snapshot/serializer.hh"

namespace dlsim::os
{

void
Connection::shutdownWrite(ConnSide side)
{
    Pipe &tx = txPipe(side);
    if (tx.closed())
        return;
    tx.close();
    if (state == ConnState::Established)
        state = ConnState::HalfClosed;
    else if (state == ConnState::HalfClosed &&
             toServer.closed() && toClient.closed())
        state = ConnState::Closed;
}

void
Connection::save(snapshot::Serializer &s) const
{
    s.beginStruct("conn");
    s.u32(static_cast<std::uint32_t>(id));
    s.u8(static_cast<std::uint8_t>(state));
    s.endStruct();
    toServer.save(s);
    toClient.save(s);
}

void
Connection::load(snapshot::Deserializer &d)
{
    d.enterStruct("conn");
    d.checkU32(static_cast<std::uint32_t>(id), "connection id");
    state = static_cast<ConnState>(d.u8());
    d.leaveStruct();
    toServer.load(d);
    toClient.load(d);
}

void
Listener::save(snapshot::Serializer &s) const
{
    s.beginStruct("listener");
    s.u32(static_cast<std::uint32_t>(port));
    s.u32(backlogMax);
    s.u32(static_cast<std::uint32_t>(backlog.size()));
    for (const auto cid : backlog)
        s.u32(static_cast<std::uint32_t>(cid));
    s.u32(static_cast<std::uint32_t>(acceptWaiters.size()));
    for (const auto tid : acceptWaiters)
        s.u32(tid);
    s.u32(static_cast<std::uint32_t>(connectWaiters.size()));
    for (const auto tid : connectWaiters)
        s.u32(tid);
    s.endStruct();
}

void
Listener::load(snapshot::Deserializer &d)
{
    d.enterStruct("listener");
    port = static_cast<std::int32_t>(d.u32());
    backlogMax = d.u32();
    backlog.resize(d.count(4));
    for (auto &cid : backlog)
        cid = static_cast<std::int32_t>(d.u32());
    acceptWaiters.resize(d.count(4));
    for (auto &tid : acceptWaiters)
        tid = d.u32();
    connectWaiters.resize(d.count(4));
    for (auto &tid : connectWaiters)
        tid = d.u32();
    d.leaveStruct();
}

} // namespace dlsim::os
