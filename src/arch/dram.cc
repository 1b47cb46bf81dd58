#include "arch/dram.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace reason {
namespace arch {

namespace {

bool
isPow2(uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

uint32_t
log2Pow2(uint64_t x)
{
    uint32_t n = 0;
    while (x > 1) {
        x >>= 1;
        ++n;
    }
    return n;
}

} // namespace

// ---------------------------------------------------------------------------
// DramAddressMap
// ---------------------------------------------------------------------------

DramAddressMap::DramAddressMap(uint32_t channels, uint32_t ranks,
                               uint32_t banksPerRank, uint32_t rowBytes,
                               uint32_t burstBytes)
    : channels_(channels), ranks_(ranks), banksPerRank_(banksPerRank),
      rowBytes_(rowBytes), burstBytes_(burstBytes)
{
    // The decode masks below slice address bits, so every dimension
    // must be a power of two: with 3 channels, `& (channels - 1)`
    // would never select channel 1.
    reasonAssert(isPow2(channels_) && isPow2(ranks_) &&
                     isPow2(banksPerRank_),
                 "DRAM channels, ranks and banks must be powers of two");
    reasonAssert(isPow2(rowBytes_) && isPow2(burstBytes_),
                 "DRAM row and burst sizes must be powers of two");
    reasonAssert(rowBytes_ >= burstBytes_,
                 "a DRAM row must hold at least one burst");
    burstsPerRow_ = rowBytes_ / burstBytes_;
    chBits_ = log2Pow2(channels_);
    colBits_ = log2Pow2(burstsPerRow_);
    bankBits_ = log2Pow2(banksPerRank_);
    rankBits_ = log2Pow2(ranks_);
}

DramCoord
DramAddressMap::decode(uint64_t addr) const
{
    uint64_t b = addr / burstBytes_;
    DramCoord c;
    c.channel = uint32_t(b & (channels_ - 1));
    b >>= chBits_;
    c.col = uint32_t(b & (burstsPerRow_ - 1));
    b >>= colBits_;
    c.bank = uint32_t(b & (banksPerRank_ - 1));
    b >>= bankBits_;
    c.rank = uint32_t(b & (ranks_ - 1));
    b >>= rankBits_;
    c.row = b;
    return c;
}

uint64_t
DramAddressMap::encode(const DramCoord &c) const
{
    uint64_t b = c.row;
    b = (b << rankBits_) | c.rank;
    b = (b << bankBits_) | c.bank;
    b = (b << colBits_) | c.col;
    b = (b << chBits_) | c.channel;
    return b * burstBytes_;
}

// ---------------------------------------------------------------------------
// DramModel
// ---------------------------------------------------------------------------

DramModel::DramModel(const ArchConfig &cfg)
    : map_(cfg.dramChannels, cfg.dramRanksPerChannel, cfg.dramBanksPerRank,
           cfg.dramRowBytes, cfg.dramBurstBytes),
      tRcd_(cfg.dramTRcdCycles), tRp_(cfg.dramTRpCycles),
      tCas_(cfg.dramTCasCycles), tRas_(cfg.dramTRasCycles),
      burstCycles_(cfg.dramBurstCycles),
      queueDepth_(cfg.dramQueueDepth ? cfg.dramQueueDepth : 1),
      channels_(cfg.dramChannels),
      banks_(size_t(cfg.dramChannels) * map_.banksPerChannel()),
      bankStats_(banks_.size())
{
}

DramModel::BankState &
DramModel::bank(const DramCoord &c)
{
    size_t idx = size_t(c.channel) * map_.banksPerChannel() +
                 size_t(c.rank) * map_.banksPerRank() + c.bank;
    return banks_[idx];
}

const DramBankCounters &
DramModel::bankCounters(uint32_t channel, uint32_t bankInChannel) const
{
    return bankStats_[size_t(channel) * map_.banksPerChannel() +
                      bankInChannel];
}

double
DramModel::peakBytesPerCycle() const
{
    return double(map_.channels()) * map_.burstBytes() / double(burstCycles_);
}

uint64_t
DramModel::serviceOne(uint32_t ch)
{
    ChannelState &c = channels_[ch];
    reasonAssert(!c.pending.empty(), "serviceOne on an idle channel");

    // Bank-level-parallelism sample: distinct banks with queued work.
    {
        std::vector<char> seen(map_.banksPerChannel(), 0);
        uint64_t distinct = 0;
        for (const PendingBurst &p : c.pending) {
            size_t b = size_t(p.coord.rank) * map_.banksPerRank() +
                       p.coord.bank;
            if (!seen[b]) {
                seen[b] = 1;
                ++distinct;
            }
        }
        blpSum_ += distinct;
        blpSamples_ += 1;
    }

    // FR-FCFS: oldest queued burst whose bank has the matching row
    // open wins; otherwise fall back to the overall oldest (front).
    size_t pick = 0;
    for (size_t i = 0; i < c.pending.size(); ++i) {
        const PendingBurst &p = c.pending[i];
        const BankState &bs =
            banks_[size_t(p.coord.channel) * map_.banksPerChannel() +
                   size_t(p.coord.rank) * map_.banksPerRank() + p.coord.bank];
        if (bs.openRow == int64_t(p.coord.row)) {
            pick = i;
            break;
        }
    }
    PendingBurst burst = c.pending[pick];
    c.pending.erase(c.pending.begin() + ptrdiff_t(pick));

    BankState &bk = bank(burst.coord);
    DramBankCounters &bc =
        bankStats_[size_t(burst.coord.channel) * map_.banksPerChannel() +
                   size_t(burst.coord.rank) * map_.banksPerRank() +
                   burst.coord.bank];

    // Earliest cycle the column command can issue at this bank.
    uint64_t t = std::max(burst.arrival, bk.readyAt);
    if (bk.openRow == int64_t(burst.coord.row)) {
        ++bc.hits;
        ++hits_;
    } else if (bk.openRow < 0) {
        // Closed bank: activate the row (tRCD before the column cmd).
        bk.openRow = int64_t(burst.coord.row);
        bk.rasReadyAt = t + tRas_;
        t += tRcd_;
        ++bc.misses;
        ++misses_;
    } else {
        // Row conflict: wait out tRAS, precharge (tRP), re-activate.
        uint64_t pre = std::max(t, bk.rasReadyAt);
        uint64_t act = pre + tRp_;
        bk.openRow = int64_t(burst.coord.row);
        bk.rasReadyAt = act + tRas_;
        t = act + tRcd_;
        ++bc.conflicts;
        ++conflicts_;
    }

    // Data leaves tCAS after the column command, serialized on the
    // channel's shared data bus.
    uint64_t data = std::max(t + tCas_, c.busFreeAt);
    uint64_t done = data + burstCycles_;
    c.busFreeAt = done;
    bk.readyAt = t + burstCycles_;
    if (done > lastCompletion_)
        lastCompletion_ = done;
    return done;
}

void
DramModel::enqueueBurst(uint32_t ch, const PendingBurst &b)
{
    ChannelState &c = channels_[ch];
    // Bounded request queue: a full queue back-pressures the producer,
    // which stalls until the scheduler drains a slot.
    while (c.pending.size() >= queueDepth_) {
        uint64_t done = serviceOne(ch);
        if (done > callMax_)
            callMax_ = done;
    }
    c.pending.push_back(b);
    if (c.pending.size() > maxQueueOccupancy_)
        maxQueueOccupancy_ = uint32_t(c.pending.size());
}

uint64_t
DramModel::drainAll()
{
    uint64_t maxDone = callMax_;
    for (uint32_t ch = 0; ch < map_.channels(); ++ch) {
        while (!channels_[ch].pending.empty()) {
            uint64_t done = serviceOne(ch);
            if (done > maxDone)
                maxDone = done;
        }
    }
    return maxDone;
}

uint64_t
DramModel::read(uint64_t now, uint64_t addr, size_t bytes)
{
    DramRequest r;
    r.addr = addr;
    r.bytes = bytes;
    return readBatch(now, {r});
}

uint64_t
DramModel::readBatch(uint64_t now, const std::vector<DramRequest> &reqs)
{
    callMax_ = now;
    for (const DramRequest &r : reqs) {
        size_t bytes = r.bytes ? r.bytes : 1;
        uint64_t first = r.addr / map_.burstBytes();
        uint64_t last = (r.addr + bytes - 1) / map_.burstBytes();
        for (uint64_t bi = first; bi <= last; ++bi) {
            PendingBurst p;
            p.arrival = now;
            p.coord = map_.decode(bi * map_.burstBytes());
            p.seq = seq_++;
            enqueueBurst(p.coord.channel, p);
            ++bursts_;
            bytesRead_ += map_.burstBytes();
        }
    }
    return drainAll();
}

void
DramModel::exportStats(StatGroup &g) const
{
    g.inc("dram_row_hits", hits_);
    g.inc("dram_row_misses", misses_);
    g.inc("dram_row_conflicts", conflicts_);
    g.inc("dram_bursts", bursts_);
    g.inc("dram_bytes", bytesRead_);
    g.inc("dram_row_hit_rate_permille",
          uint64_t(rowHitRate() * 1000.0 + 0.5));
    g.inc("dram_blp_x100",
          uint64_t(meanQueuedBankParallelism() * 100.0 + 0.5));
    g.inc("dram_queue_peak", maxQueueOccupancy_);
    for (uint32_t ch = 0; ch < map_.channels(); ++ch) {
        for (uint32_t b = 0; b < map_.banksPerChannel(); ++b) {
            const DramBankCounters &bc = bankCounters(ch, b);
            if (bc.hits + bc.misses + bc.conflicts == 0)
                continue;
            std::string prefix =
                "dram_c" + std::to_string(ch) + "_b" + std::to_string(b);
            g.inc(prefix + "_hits", bc.hits);
            g.inc(prefix + "_misses", bc.misses);
            g.inc(prefix + "_conflicts", bc.conflicts);
        }
    }
}

// ---------------------------------------------------------------------------
// DmaSession
// ---------------------------------------------------------------------------

DmaSession::DmaSession(DramModel &dram, uint32_t wordBytes)
    : dram_(dram), wordBytes_(wordBytes ? wordBytes : 1)
{
}

void
DmaSession::requestWord(uint64_t addr)
{
    pending_.push_back(addr - addr % wordBytes_);
    ++words_;
}

uint64_t
DmaSession::complete(uint64_t now)
{
    if (pending_.empty())
        return now;
    std::sort(pending_.begin(), pending_.end());

    // Merge sorted words into contiguous runs, never crossing a
    // row-stripe window so every run stays a same-row burst train.
    const uint64_t rowSpan = dram_.map().rowSpanBytes();
    std::vector<DramRequest> reqs;
    uint64_t runStart = pending_[0];
    uint64_t runEnd = runStart + wordBytes_;
    for (size_t i = 1; i < pending_.size(); ++i) {
        uint64_t a = pending_[i];
        if (a < runEnd) {
            ++duplicates_;
            continue;
        }
        if (a == runEnd && a / rowSpan == runStart / rowSpan) {
            runEnd = a + wordBytes_;
            continue;
        }
        reqs.push_back({runStart, size_t(runEnd - runStart)});
        runStart = a;
        runEnd = a + wordBytes_;
    }
    reqs.push_back({runStart, size_t(runEnd - runStart)});
    runs_ += reqs.size();
    pending_.clear();
    return dram_.readBatch(now, reqs);
}

} // namespace arch
} // namespace reason
