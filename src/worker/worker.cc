#include "src/worker/worker.h"

#include <algorithm>
#include <memory>

#include "src/common/tracing.h"

namespace nimbus {

namespace {
// Worker trace track: worker id = track (DESIGN.md §12.3).
inline std::uint32_t TraceTrack(WorkerId id) {
  return static_cast<std::uint32_t>(id.value());
}

// A deferred per-command event names its command by (group seq, row) packed into one
// word with the structured copy id's layout (command.h); tables and streaming groups cap
// their rows at the index field.
inline std::uint64_t CommandKey(std::uint64_t seq, std::int32_t row) {
  return (seq << kCopyIndexBits) | static_cast<std::uint64_t>(row);
}
inline std::uint64_t KeySeq(std::uint64_t key) { return key >> kCopyIndexBits; }
inline std::int32_t KeyRow(std::uint64_t key) {
  return static_cast<std::int32_t>(key & ((std::uint64_t{1} << kCopyIndexBits) - 1));
}
}  // namespace

Worker::Worker(WorkerId id, sim::Simulation* simulation, net::Transport* transport,
               const sim::CostModel* costs, const FunctionRegistry* functions,
               DurableStore* durable, net::TimerQueue* timers)
    : id_(id),
      simulation_(simulation),
      transport_(transport),
      owned_timers_(timers == nullptr ? std::make_unique<net::SimTimerQueue>(simulation)
                                      : nullptr),
      timers_(timers == nullptr ? owned_timers_.get() : timers),
      costs_(costs),
      functions_(functions),
      durable_(durable),
      cores_(simulation, costs->worker_cores),
      control_thread_(simulation) {}

void Worker::OnEnvelope(net::NodeAddress src, MessageKind kind, ParameterBlob bytes) {
  static_cast<void>(src);
  static_cast<void>(kind);
  if (failed_) {
    return;  // a dead worker processes nothing — in-flight deliveries fall on the floor
  }
  switch (wire::PeekEnvelopeType(bytes)) {
    case wire::EnvelopeType::kCommands: {
      wire::CommandsEnvelope e = wire::DecodeCommandsEnvelope(bytes);
      OnCommands(e.group_seq, std::move(e.commands),
                 static_cast<std::size_t>(e.expected_total), e.finalize, e.barrier);
      break;
    }
    case wire::EnvelopeType::kSerializedBatch: {
      wire::SerializedBatchEnvelope e = wire::DecodeSerializedBatchEnvelope(bytes);
      OnSerializedCommands(e.group_seq, std::move(e.batch),
                           static_cast<std::size_t>(e.expected_total), e.finalize,
                           e.barrier);
      break;
    }
    case wire::EnvelopeType::kInstallTemplate: {
      wire::InstallTemplateEnvelope e = wire::DecodeInstallTemplateEnvelope(bytes);
      OnInstallTemplate(std::move(e.half), e.id);
      break;
    }
    case wire::EnvelopeType::kInstantiate:
      OnInstantiate(wire::DecodeInstantiateEnvelope(bytes));
      break;
    case wire::EnvelopeType::kHalt:
      wire::DecodeHaltEnvelope(bytes);
      OnHalt();
      break;
    case wire::EnvelopeType::kLoadObjects: {
      wire::LoadObjectsEnvelope e = wire::DecodeLoadObjectsEnvelope(bytes);
      OnLoadObjects(e.group_seq, std::move(e.objects));
      break;
    }
    case wire::EnvelopeType::kHeartbeatAck:
      OnHeartbeatAck(wire::DecodeHeartbeatAckEnvelope(bytes).seq);
      break;
    case wire::EnvelopeType::kDataCopy: {
      wire::DataCopyEnvelope e = wire::DecodeDataCopyEnvelope(bytes);
      OnDataMessage(e.copy, e.object, e.version, std::move(e.payload));
      break;
    }
    default:
      NIMBUS_CHECK(false) << "worker " << id_ << ": unexpected envelope type "
                          << static_cast<int>(wire::PeekEnvelopeType(bytes));
  }
}

void Worker::StartHeartbeats(sim::Duration period) {
  if (heartbeats_running_) {
    return;
  }
  heartbeats_running_ = true;
  HeartbeatTick(period);
}

void Worker::HeartbeatTick(sim::Duration period) {
  if (failed_) {
    heartbeats_running_ = false;
    return;
  }
  wire::HeartbeatEnvelope beat;
  beat.worker = id_;
  beat.seq = ++heartbeat_seq_;
  transport_->Send(address(), net::NodeAddress::Controller(), MessageKind::kControl,
                   wire::EncodeHeartbeatEnvelope(beat), /*cost_bytes=*/16);
  ++failure_counters_.heartbeats_sent;
  timers_->Schedule(period, [this, period]() { HeartbeatTick(period); });
}

void Worker::OnHeartbeatAck(std::uint64_t seq) {
  last_acked_heartbeat_ = std::max(last_acked_heartbeat_, seq);
  ++failure_counters_.heartbeat_acks;
}

Worker::Group& Worker::GetOrCreateGroup(std::uint64_t seq, bool barrier) {
  for (Group& g : groups_) {
    if (g.seq == seq) {
      return g;
    }
  }
  NIMBUS_CHECK_GT(seq, stale_seq_floor_) << "group " << seq << " already finished or halted";
  groups_.push_back(Group{});
  Group& g = groups_.back();
  g.seq = seq;
  g.barrier = barrier;
  return g;
}

Worker::CopySlot& Worker::EnsureCopySlot(Group& group, std::int32_t copy_index) {
  NIMBUS_CHECK_GE(copy_index, 0);
  std::vector<CopySlot>& slots = group.state->copy_slots;
  if (static_cast<std::size_t>(copy_index) >= slots.size()) {
    slots.resize(static_cast<std::size_t>(copy_index) + 1);
  }
  return slots[static_cast<std::size_t>(copy_index)];
}

void Worker::BindReceiveSlot(Group& group, std::int32_t index) {
  const std::int32_t copy_index =
      group.table->rows[static_cast<std::size_t>(index)].copy_index;
  CopySlot& slot = EnsureCopySlot(group, copy_index);
  NIMBUS_CHECK_LT(slot.command, 0)
      << "duplicate receive for copy " << MakeCopyId(group.seq, copy_index);
  slot.command = index;
  // Claim a payload that arrived before this group existed.
  if (early_data_.empty()) {
    return;
  }
  const CopyId copy = MakeCopyId(group.seq, copy_index);
  for (auto it = early_data_.begin(); it != early_data_.end(); ++it) {
    if (it->copy == copy) {
      slot.has_data = true;
      slot.object = it->object;
      slot.version = it->version;
      slot.payload = std::move(it->payload);
      early_data_.erase(it);
      break;
    }
  }
}

void Worker::OnCommands(std::uint64_t group_seq, std::vector<Command> commands,
                        std::size_t expected_total, bool finalize, bool barrier) {
  // Message handlers run serially (simulator delivery): assert the control-phase role so
  // the group machinery's REQUIRES contract is satisfied from here down (DESIGN.md §11).
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  if (group_seq <= stale_seq_floor_) {
    return;  // in-flight leftovers of a group that finished or was halted: drop
  }
  const sim::Duration charge =
      costs_->worker_receive_task * static_cast<sim::Duration>(commands.size());
  control_thread_.Charge(charge);
  IngestCommands(group_seq, std::move(commands), expected_total, finalize, barrier);
}

void Worker::OnSerializedCommands(std::uint64_t group_seq, ParameterBlob bytes,
                                  std::size_t expected_total, bool finalize, bool barrier) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  if (group_seq <= stale_seq_floor_) {
    return;
  }
  wire::DecodedBatch batch;
  {
    NIMBUS_TRACE_SPAN_V(trace::Lane::kWorker, TraceTrack(id_), "decode",
                        static_cast<std::int64_t>(bytes.size()));
    batch = wire::DecodeBatch(bytes);
  }
  NIMBUS_CHECK_EQ(batch.header.group_seq, group_seq)
      << "serialized batch addressed to a different group";
  const sim::Duration charge = costs_->serialized_decode_per_task *
                               static_cast<sim::Duration>(batch.commands.size());
  control_thread_.Charge(charge);
  IngestCommands(group_seq, std::move(batch.commands), expected_total, finalize, barrier);
}

void Worker::IngestCommands(std::uint64_t group_seq, std::vector<Command> commands,
                            std::size_t expected_total, bool finalize, bool barrier) {
  NIMBUS_TRACE_SPAN_V(trace::Lane::kWorker, TraceTrack(id_), "ingest",
                      static_cast<std::int64_t>(commands.size()));
  if (command_log_enabled_) {
    command_log_.insert(command_log_.end(), commands.begin(), commands.end());
  }

  Group& group = GetOrCreateGroup(group_seq, barrier);
  if (group.streaming == nullptr) {
    NIMBUS_CHECK(group.table == nullptr)
        << "streamed commands for instantiated group " << group_seq;
    group.streaming = std::make_unique<StreamingState>();
    group.streaming->table = std::make_shared<RunnableTable>();
    group.table = group.streaming->table;
    group.state = std::make_unique<GroupState>();
  }
  StreamingState& s = *group.streaming;
  s.batches.push_back(std::move(commands));
  for (const Command& cmd : s.batches.back()) {
    AddCommandToGroup(group, cmd);
  }
  if (finalize) {
    group.finalized = true;
    group.expected_total = expected_total;
  }
  MaybeStartGroups();
  FinishGroupIfDone(group_seq);
}

void Worker::CompileTable(RunnableTable& table, const RunnableTable* previous,
                          const std::vector<core::WorkerEditOp>& edits) {
  const std::vector<core::WtEntry>& entries = table.half.entries;
  const std::size_t n = entries.size();
  NIMBUS_CHECK_LT(n, std::size_t{1} << kCopyIndexBits) << "worker half exceeds the row field";
  ++materialize_counters_.table_compiles;

  // Before edges inverted into CSR waiter lists, filled in ascending dependent order: a
  // list's order is the order a completion launches its waiters in, and with it the
  // simulator's event order. Dead slots keep their edges: ordering is index-stable.
  table.waiter_begin.assign(n + 1, 0);
  table.initial_remaining.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int32_t b : entries[i].before) {
      NIMBUS_CHECK_GE(b, 0);
      NIMBUS_CHECK_LT(static_cast<std::size_t>(b), n);
      if (static_cast<std::size_t>(b) != i) {
        ++table.waiter_begin[static_cast<std::size_t>(b) + 1];
        ++table.initial_remaining[i];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    table.waiter_begin[i + 1] += table.waiter_begin[i];
  }
  table.waiters.resize(table.waiter_begin[n]);
  std::vector<std::uint32_t> cursor(table.waiter_begin.begin(), table.waiter_begin.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int32_t b : entries[i].before) {
      if (static_cast<std::size_t>(b) != i) {
        table.waiters[cursor[static_cast<std::size_t>(b)]++] = static_cast<std::int32_t>(i);
      }
    }
  }

  // Slots an edit replaced carry new objects; every other slot the previous table resolved
  // keeps its dense sets, so an edit batch interns only what it touched. Interning mutates
  // the store's id space, which is why this pass is serial and lives here, not in the
  // per-instantiation executor batch.
  std::vector<std::uint8_t> replaced(n, 0);
  for (const core::WorkerEditOp& op : edits) {
    if (op.kind == core::WorkerEditOp::Kind::kReplaceWithReceive &&
        static_cast<std::size_t>(op.index) < n) {
      replaced[static_cast<std::size_t>(op.index)] = 1;
    }
  }
  table.rows.assign(n, RunnableTable::Row{});
  table.objects.clear();
  table.cached_params.assign(n, nullptr);
  table.task_rows.clear();
  table.receives.clear();
  table.copy_slot_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const core::WtEntry& e = entries[i];
    RunnableTable::Row& row = table.rows[i];
    row.sets = static_cast<std::uint32_t>(table.objects.size());
    if (e.dead) {
      continue;  // a no-op create preserving the index
    }
    row.type = e.type;
    row.read_count = static_cast<std::uint32_t>(e.reads.size());
    row.write_count = static_cast<std::uint32_t>(e.writes.size());
    const RunnableTable::Row* old =
        previous != nullptr && i < previous->rows.size() && replaced[i] == 0
            ? &previous->rows[i]
            : nullptr;
    if (old != nullptr && old->type == row.type && old->read_count == row.read_count &&
        old->write_count == row.write_count) {
      const auto first = previous->objects.begin() + old->sets;
      table.objects.insert(table.objects.end(), first,
                           first + old->read_count + old->write_count);
      row.object_dense = old->object_dense;
    } else {
      for (LogicalObjectId r : e.reads) {
        table.objects.push_back(store_.Intern(r));
      }
      for (LogicalObjectId w : e.writes) {
        table.objects.push_back(store_.Intern(w));
      }
      if (e.type == CommandType::kCopySend) {
        row.object_dense = store_.Intern(e.object);
      }
      ++materialize_counters_.dense_resolves;
    }
    switch (e.type) {
      case CommandType::kTask:
        row.function = e.function;
        row.duration = e.duration;
        row.returns_scalar = e.returns_scalar;
        row.task = static_cast<std::uint64_t>(e.global_entry);
        table.cached_params[i] = &e.cached_params;
        table.task_rows.emplace_back(e.global_entry, static_cast<std::int32_t>(i));
        break;
      case CommandType::kCopySend:
      case CommandType::kCopyReceive:
        row.copy_index = e.copy_index;
        row.peer = e.peer;
        row.object = e.object;
        row.bytes = e.bytes;
        if (e.type == CommandType::kCopyReceive) {
          table.receives.push_back(static_cast<std::int32_t>(i));
          table.copy_slot_count =
              std::max(table.copy_slot_count, static_cast<std::size_t>(e.copy_index) + 1);
        }
        break;
      default:
        row.object = e.object;
        break;
    }
  }
  std::stable_sort(table.task_rows.begin(), table.task_rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
}

void Worker::OnInstallTemplate(core::WorkerHalf half, WorkerTemplateId id) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  const sim::Duration charge = costs_->install_worker_template_worker_per_task *
                               static_cast<sim::Duration>(half.entries.size());
  control_thread_.Charge(charge);
  const DenseIndex index = template_ids_.Intern(id);
  templates_.EnsureSize(template_ids_.size());
  auto table = std::make_shared<RunnableTable>();
  table->half = std::move(half);
  CompileTable(*table, /*previous=*/nullptr, /*edits=*/{});
  templates_[index].table = std::move(table);
}

std::size_t Worker::cached_template_count() const {
  control_phase_.Assert();
  std::size_t n = 0;
  for (const CachedTemplate& t : templates_) {
    if (t.table != nullptr) {
      ++n;
    }
  }
  return n;
}

bool Worker::HasTemplate(WorkerTemplateId id) const {
  control_phase_.Assert();
  const DenseIndex index = template_ids_.Find(id);
  return index != kInvalidDenseIndex && templates_[index].table != nullptr;
}

std::size_t Worker::buffered_copy_count() const {
  control_phase_.Assert();
  std::size_t n = early_data_.size();
  for (const Group& g : groups_) {
    if (g.state == nullptr) {
      continue;
    }
    for (const CopySlot& slot : g.state->copy_slots) {
      if (slot.has_data) {
        ++n;
      }
    }
  }
  return n;
}

void Worker::OnInstantiate(InstantiateMsg msg) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  // The sparse template id is resolved once per message (the intern boundary); everything
  // past this point runs on dense indices.
  const DenseIndex tmpl_index = template_ids_.Find(msg.worker_template);
  NIMBUS_CHECK(tmpl_index != kInvalidDenseIndex && templates_[tmpl_index].table != nullptr)
      << "worker " << id_ << " has no cached template " << msg.worker_template;
  CachedTemplate& cached = templates_[tmpl_index];

  // Piggybacked edits (paper §4.3) compile into a new table. Groups that hold the current
  // one — running, or queued behind their control-thread charge — keep their pre-edit
  // commands (copy-on-edit); with no other holder the half moves over instead of copying.
  if (!msg.edits.empty()) {
    auto next = std::make_shared<RunnableTable>();
    if (cached.table.use_count() == 1) {
      next->half = std::move(cached.table->half);
    } else {
      next->half = cached.table->half;
    }
    core::ApplyWorkerEditOps(&next->half, msg.edits);
    CompileTable(*next, cached.table.get(), msg.edits);
    cached.table = std::move(next);
  }
  const std::size_t entries = cached.table->rows.size();

  // Overlap-aware rate (DESIGN.md §9.3): a parallel executor materializes entry chunks on
  // min(lanes, cores) real cores, so the modeled per-entry charge divides by that, scaled
  // by the measured chunking efficiency. Clamped to the entry count — a tiny half runs at
  // most one chunk per entry. One lane (the inline default) divides by 1.
  const double lanes = static_cast<double>(std::min(
      {executor_->concurrency(), static_cast<std::size_t>(costs_->worker_cores),
       std::max<std::size_t>(1, entries)}));
  const double speedup = std::max(1.0, lanes * costs_->worker_materialize_efficiency);
  const auto charge = static_cast<sim::Duration>(
      static_cast<double>(costs_->instantiate_worker_template_auto_per_task *
                          static_cast<sim::Duration>(entries)) /
      speedup);

  // Instantiate the table as it stands now after the control-thread charge. A halt between
  // the charge and the materialization discards the instantiation: its group belongs to
  // the abandoned pre-halt schedule (halt_epoch_ tracks this).
  const std::uint64_t epoch = halt_epoch_;
  control_thread_.Submit(charge, [this, tmpl_index, epoch,
                                  table = std::shared_ptr<const RunnableTable>(cached.table),
                                  msg = std::move(msg)]() mutable {
    // Deferred back onto the serial control phase by the simulator; the analysis sees
    // lambda bodies as separate functions, so the role is re-asserted here.
    control_phase_.Assert();
    if (failed_ || epoch != halt_epoch_) {
      return;
    }
    MaterializeInstantiation(tmpl_index, std::move(table), msg);
  });
}

std::size_t Worker::ChunkCount(std::size_t n) const {
  if (n == 0) {
    return 0;
  }
  return std::max<std::size_t>(1, std::min(executor_->concurrency(), n));
}

void Worker::MaterializeInstantiation(DenseIndex tmpl_index,
                                      std::shared_ptr<const RunnableTable> table,
                                      InstantiateMsg& msg) {
  NIMBUS_TRACE_SPAN(trace::Lane::kWorker, TraceTrack(id_), "materialize");
  const RunnableTable& t = *table;
  const std::size_t n = t.rows.size();

  Group& group = GetOrCreateGroup(msg.group_seq, /*barrier=*/true);
  group.table = std::move(table);
  group.template_index = tmpl_index;
  group.command_base = msg.command_base.value();
  group.task_base = msg.task_base.value();
  group.override_params = std::move(msg.params);

  std::unique_ptr<GroupState> state = std::move(templates_[tmpl_index].spare);
  if (state != nullptr) {
    ++materialize_counters_.state_reuses;
  } else {
    state = std::make_unique<GroupState>();
  }
  GroupState& st = *state;
  st.remaining.resize(n);
  st.flags.resize(n);
  st.params.resize(n);

  // Per-entry pass in executor chunks (DESIGN.md §9.3): each job copies its slice of the
  // initial before counts and cached parameters and clears its flags. Slices are
  // disjoint, so the state is executor-invariant.
  const std::size_t chunks = ChunkCount(n);
  executor_->Run(chunks, [&](std::size_t job) {
    const std::size_t begin = job * n / chunks;
    const std::size_t end = (job + 1) * n / chunks;
    std::copy(t.initial_remaining.begin() + static_cast<std::ptrdiff_t>(begin),
              t.initial_remaining.begin() + static_cast<std::ptrdiff_t>(end),
              st.remaining.begin() + static_cast<std::ptrdiff_t>(begin));
    std::copy(t.cached_params.begin() + static_cast<std::ptrdiff_t>(begin),
              t.cached_params.begin() + static_cast<std::ptrdiff_t>(end),
              st.params.begin() + static_cast<std::ptrdiff_t>(begin));
    std::fill(st.flags.begin() + static_cast<std::ptrdiff_t>(begin),
              st.flags.begin() + static_cast<std::ptrdiff_t>(end), std::uint8_t{0});
  });
  materialize_counters_.build_chunks += chunks;
  ++materialize_counters_.groups;
  materialize_counters_.entries += n;

  // Instantiation-supplied parameters override the cached ones of their task slots.
  for (const auto& [slot, blob] : group.override_params) {
    auto it = std::lower_bound(t.task_rows.begin(), t.task_rows.end(), slot,
                               [](const auto& p, std::int32_t s) { return p.first < s; });
    for (; it != t.task_rows.end() && it->first == slot; ++it) {
      st.params[static_cast<std::size_t>(it->second)] = &blob;
    }
  }

  st.copy_slots.clear();
  st.copy_slots.resize(t.copy_slot_count);
  group.state = std::move(state);
  // Receive-slot binding claims buffered payloads: serial, in ascending row order.
  for (std::int32_t r : t.receives) {
    BindReceiveSlot(group, r);
  }

  if (command_log_enabled_) {
    for (std::size_t i = 0; i < n; ++i) {
      command_log_.push_back(LoggedCommand(group, static_cast<std::int32_t>(i)));
    }
  }

  group.finalized = true;
  group.expected_total = n;
  MaybeStartGroups();
  FinishGroupIfDone(msg.group_seq);
}

Command Worker::LoggedCommand(const Group& group, std::int32_t index) {
  const RunnableTable::Row& row = group.table->rows[static_cast<std::size_t>(index)];
  Command cmd;
  cmd.id = CommandId(group.command_base + static_cast<std::uint64_t>(index));
  cmd.type = row.type;
  switch (row.type) {
    case CommandType::kTask:
      cmd.function = row.function;
      cmd.task_id = TaskId(group.task_base + row.task);
      cmd.duration = row.duration;
      cmd.returns_scalar = row.returns_scalar;
      cmd.params = *group.state->params[static_cast<std::size_t>(index)];
      break;
    case CommandType::kCopySend:
    case CommandType::kCopyReceive:
      cmd.copy_id = MakeCopyId(group.seq, row.copy_index);
      cmd.peer = row.peer;
      cmd.copy_object = row.object;
      cmd.copy_bytes = row.bytes;
      break;
    default:
      cmd.data_object = row.object;
      break;
  }
  return cmd;
}

void Worker::OnHalt() {
  control_phase_.Assert();
  for (const Group& g : groups_) {
    stale_seq_floor_ = std::max(stale_seq_floor_, g.seq);
  }
  groups_.clear();
  early_data_.clear();
  ++halt_epoch_;  // voids instantiations still queued behind their control-thread charge
}

void Worker::OnLoadObjects(std::uint64_t group_seq, std::vector<LogicalObjectId> objects) {
  if (failed_) {
    return;
  }
  std::vector<Command> commands;
  commands.reserve(objects.size());
  for (LogicalObjectId object : objects) {
    Command cmd;
    cmd.id = CommandId((group_seq << 24) | commands.size());
    cmd.type = CommandType::kFileLoad;
    cmd.data_object = object;
    commands.push_back(std::move(cmd));
  }
  const std::size_t total = commands.size();
  OnCommands(group_seq, std::move(commands), total, /*finalize=*/true, /*barrier=*/true);
}

void Worker::AddCommandToGroup(Group& group, const Command& cmd) {
  StreamingState& s = *group.streaming;
  RunnableTable& t = *s.table;
  GroupState& st = *group.state;
  NIMBUS_CHECK_LT(t.rows.size(), std::size_t{1} << kCopyIndexBits)
      << "group " << group.seq << " exceeds the row field";
  const auto index = static_cast<std::int32_t>(t.rows.size());
  s.index_of.emplace(cmd.id, index);
  s.commands.push_back(&cmd);
  s.first_waiter.push_back(-1);
  s.last_waiter.push_back(-1);
  // Appends `waiter` to row `of`'s chain.
  const auto add_waiter = [&s](std::int32_t of, std::int32_t waiter) {
    const auto link = static_cast<std::int32_t>(s.links.size());
    s.links.push_back({waiter, -1});
    std::int32_t& last = s.last_waiter[static_cast<std::size_t>(of)];
    if (last < 0) {
      s.first_waiter[static_cast<std::size_t>(of)] = link;
    } else {
      s.links[static_cast<std::size_t>(last)].next = link;
    }
    last = link;
  };

  std::int32_t remaining = 0;
  for (CommandId b : cmd.before) {
    auto it = s.index_of.find(b);
    if (it == s.index_of.end() || it->second == index) {
      s.pending_edges[b].push_back(index);  // dependency not yet arrived (streaming)
    } else if ((st.flags[static_cast<std::size_t>(it->second)] & GroupState::kDone) != 0) {
      continue;  // dependency already completed
    } else {
      add_waiter(it->second, index);
    }
    ++remaining;
  }

  RunnableTable::Row row;
  row.type = cmd.type;
  row.sets = static_cast<std::uint32_t>(t.objects.size());
  switch (cmd.type) {
    case CommandType::kTask:
      row.function = cmd.function;
      row.duration = cmd.duration;
      row.returns_scalar = cmd.returns_scalar;
      row.task = cmd.task_id.value();  // streaming groups have task base 0
      row.read_count = static_cast<std::uint32_t>(cmd.read_set.size());
      row.write_count = static_cast<std::uint32_t>(cmd.write_set.size());
      for (LogicalObjectId r : cmd.read_set) {
        t.objects.push_back(store_.Intern(r));
      }
      for (LogicalObjectId w : cmd.write_set) {
        t.objects.push_back(store_.Intern(w));
      }
      break;
    case CommandType::kCopySend:
    case CommandType::kCopyReceive:
      NIMBUS_CHECK_EQ(CopyGroupSeq(cmd.copy_id), group.seq)
          << "copy id " << cmd.copy_id << " does not encode its group";
      row.copy_index = CopyLocalIndex(cmd.copy_id);
      row.peer = cmd.peer;
      row.object = cmd.copy_object;
      row.bytes = cmd.copy_bytes;
      if (cmd.type == CommandType::kCopySend) {
        row.object_dense = store_.Intern(cmd.copy_object);
      }
      break;
    default:
      row.object = cmd.data_object;
      row.bytes = cmd.copy_bytes;
      row.version = cmd.copy_version;
      break;
  }
  t.rows.push_back(row);
  st.remaining.push_back(remaining);
  st.flags.push_back(0);
  st.params.push_back(&cmd.params);
  if (row.type == CommandType::kCopyReceive) {
    BindReceiveSlot(group, index);
  }

  // Resolve edges from commands that referenced this id before it arrived.
  auto pe = s.pending_edges.find(cmd.id);
  if (pe != s.pending_edges.end()) {
    for (std::int32_t waiter : pe->second) {
      add_waiter(index, waiter);
    }
    s.pending_edges.erase(pe);
  }

  if (group.started) {
    TryLaunch(group, index);
  }
}

void Worker::MaybeStartGroups() {
  // Collect seqs first: starting a group can run commands synchronously, which can complete
  // and prune other groups, invalidating a live iterator over the deque.
  std::vector<std::uint64_t> to_start;
  bool all_prior_done = true;
  for (Group& group : groups_) {
    if (!group.started && (!group.barrier || all_prior_done)) {
      to_start.push_back(group.seq);
      // Assume it completes only via events; treat as not-done for later barrier groups.
      all_prior_done = false;
      continue;
    }
    const bool done_now =
        group.finalized && group.started && group.done_count == group.expected_total;
    all_prior_done = all_prior_done && done_now;
  }
  for (std::uint64_t seq : to_start) {
    StartGroup(seq);
  }
}

void Worker::StartGroup(std::uint64_t seq) {
  Group* group = FindGroup(seq);
  if (group == nullptr || group->started) {
    return;
  }
  group->started = true;
  NIMBUS_TRACE_SPAN(trace::Lane::kWorker, TraceTrack(id_), "group_start");

  // Eligibility scan in executor chunks (DESIGN.md §9.3): the initial ready set is a pure
  // read of each row's flags and dependency count, so chunks write disjoint slots of the
  // bitmap. Launches themselves stay serial — they drive the single-threaded simulation —
  // and a command that becomes ready only during those launches is launched by the
  // completion cascade (CompleteCommand -> TryLaunch), exactly as in the fused loop,
  // where TryLaunch on a not-yet-ready index was a no-op too.
  const std::size_t n = group->table->rows.size();
  // Scratch capacity is recycled across group starts, but the buffer is moved out while
  // in use: a launch below can cascade into a nested StartGroup (group completes ->
  // MaybeStartGroups), which must not clobber this scan (it just allocates its own).
  std::vector<std::uint8_t> ready = std::move(ready_scratch_);
  ready.assign(n, 0);
  if (n > 0) {
    const std::size_t chunks = ChunkCount(n);
    const GroupState& st = *group->state;
    executor_->Run(chunks, [&](std::size_t job) {
      const std::size_t begin = job * n / chunks;
      const std::size_t end = (job + 1) * n / chunks;
      for (std::size_t i = begin; i < end; ++i) {
        ready[i] = st.flags[i] == 0 && st.remaining[i] == 0 ? 1 : 0;
      }
    });
    ++materialize_counters_.launch_scans;
  }

  // Launching one command can synchronously complete others (copy sends, no-ops) and even
  // finish + prune the group, so re-find it on every step.
  for (std::size_t i = 0; i < n; ++i) {
    if (ready[i] == 0) {
      continue;
    }
    group = FindGroup(seq);
    if (group == nullptr) {
      break;
    }
    TryLaunch(*group, static_cast<std::int32_t>(i));
  }
  ready_scratch_ = std::move(ready);  // hand the capacity back for the next start
  FinishGroupIfDone(seq);
}

void Worker::TryLaunch(Group& group, std::int32_t index) {
  GroupState& st = *group.state;
  const auto i = static_cast<std::size_t>(index);
  if (st.flags[i] != 0 || st.remaining[i] > 0 || !group.started) {
    return;
  }
  st.flags[i] = GroupState::kLaunched;
  Launch(group, index);
}

void Worker::Launch(Group& group, std::int32_t index) {
  const RunnableTable::Row& row = group.table->rows[static_cast<std::size_t>(index)];
  switch (row.type) {
    case CommandType::kTask:
      ExecuteTask(group, index);
      break;
    case CommandType::kCopySend:
      ExecuteCopySend(group, index);
      break;
    case CommandType::kCopyReceive:
      ExecuteCopyReceive(group, index);
      break;
    case CommandType::kDataCreate:
      CompleteCommand(group.seq, index);
      break;
    case CommandType::kDataDestroy:
      store_.Erase(row.object);
      CompleteCommand(group.seq, index);
      break;
    case CommandType::kFileSave: {
      const sim::Duration cost = costs_->CheckpointWriteTime(
          row.bytes > 0 ? row.bytes : store_.Get(row.object)->ByteSize());
      const std::uint64_t key = CommandKey(group.seq, index);
      cores_.Submit(cost, [this, key]() {
        control_phase_.Assert();  // deferred onto the serial control phase
        Group* g = FindGroup(KeySeq(key));
        if (g == nullptr) {
          return;
        }
        const RunnableTable::Row& r = g->table->rows[static_cast<std::size_t>(KeyRow(key))];
        if (store_.Has(r.object)) {
          durable_->Write(r.object, r.version, *store_.Get(r.object));
        }
        CompleteCommand(KeySeq(key), KeyRow(key));
      });
      break;
    }
    case CommandType::kFileLoad: {
      NIMBUS_CHECK(durable_->Has(row.object))
          << "recovery: object " << row.object << " missing from durable store";
      // One copy out of the shared store; the deferred load installs it.
      auto entry = std::make_shared<DurableStore::Entry>(durable_->Read(row.object));
      const sim::Duration cost = costs_->CheckpointWriteTime(entry->payload->ByteSize());
      const std::uint64_t key = CommandKey(group.seq, index);
      cores_.Submit(cost, [this, key, entry]() {
        control_phase_.Assert();  // deferred onto the serial control phase
        Group* g = FindGroup(KeySeq(key));
        if (g == nullptr) {
          return;
        }
        const RunnableTable::Row& r = g->table->rows[static_cast<std::size_t>(KeyRow(key))];
        store_.Put(r.object, entry->version, std::move(entry->payload));
        CompleteCommand(KeySeq(key), KeyRow(key));
      });
      break;
    }
  }
}

void Worker::ExecuteTask(Group& group, std::int32_t index) {
  const sim::Duration total = group.table->rows[static_cast<std::size_t>(index)].duration +
                              costs_->worker_dispatch_per_task;
  // With `this`, the packed key fills std::function's inline buffer: scheduling a task
  // allocates nothing.
  const std::uint64_t key = CommandKey(group.seq, index);
  cores_.Submit(total, [this, key]() {
    control_phase_.Assert();  // deferred onto the serial control phase
    const std::uint64_t seq = KeySeq(key);
    const std::int32_t r = KeyRow(key);
    Group* g = FindGroup(seq);
    if (g == nullptr || failed_) {
      return;
    }
    const RunnableTable& t = *g->table;
    const RunnableTable::Row& row = t.rows[static_cast<std::size_t>(r)];
    const DenseIndex* reads = t.objects.data() + row.sets;
    const DenseIndex* writes = reads + row.read_count;
    TaskContext ctx(&store_, reads, row.read_count, writes, row.write_count,
                    g->state->params[static_cast<std::size_t>(r)]);
    functions_->Get(row.function)(ctx);
    ++tasks_executed_;
    // Bump local versions of written objects (informative; global truth is controller-side).
    for (std::uint32_t k = 0; k < row.write_count; ++k) {
      if (store_.HasDense(writes[k])) {
        store_.BumpVersionDense(writes[k], store_.VersionDense(writes[k]) + 1);
      }
    }
    if (row.returns_scalar) {
      NIMBUS_CHECK(ctx.has_scalar())
          << "function " << functions_->Name(row.function)
          << " was marked returns_scalar but did not call ReturnScalar";
      g->scalars.push_back(ScalarResult{TaskId(g->task_base + row.task), ctx.scalar()});
    }
    CompleteCommand(seq, r);
  });
}

void Worker::ExecuteCopySend(Group& group, std::int32_t index) {
  const RunnableTable::Row& row = group.table->rows[static_cast<std::size_t>(index)];
  NIMBUS_CHECK(store_.HasDense(row.object_dense))
      << "worker " << id_ << ": copy-send of non-resident object " << row.object;
  const net::NodeAddress peer = net::NodeAddress::ForWorker(row.peer);
  // The transfer occupies this worker's NIC for its serialization time and is delivered one
  // latency later; the send command itself completes immediately (asynchronous I/O, §3.4).
  // A failed peer is unreachable: skip the send (the controller reschedules via recovery).
  if (transport_->Reachable(peer)) {
    wire::DataCopyEnvelope e;
    e.copy = MakeCopyId(group.seq, row.copy_index);
    e.object = row.object;
    e.version = store_.VersionDense(row.object_dense);
    e.payload = store_.GetDense(row.object_dense)->Clone();
    transport_->Send(address(), peer, MessageKind::kData, wire::EncodeDataCopyEnvelope(e),
                     /*cost_bytes=*/row.bytes);
  }
  CompleteCommand(group.seq, index);
}

void Worker::ExecuteCopyReceive(Group& group, std::int32_t index) {
  const std::int32_t ci = group.table->rows[static_cast<std::size_t>(index)].copy_index;
  std::vector<CopySlot>& slots = group.state->copy_slots;
  NIMBUS_CHECK_LT(static_cast<std::size_t>(ci), slots.size())
      << "no copy slot for " << MakeCopyId(group.seq, ci);
  CopySlot& slot = slots[static_cast<std::size_t>(ci)];
  NIMBUS_CHECK_EQ(slot.command, index)
      << "receive slot mismatch for copy " << MakeCopyId(group.seq, ci);
  if (!slot.has_data) {
    return;  // completes when the data message arrives
  }
  store_.PutDense(store_.Intern(slot.object), slot.version, std::move(slot.payload));
  slot.has_data = false;
  CompleteCommand(group.seq, index);
}

void Worker::OnDataMessage(CopyId copy, LogicalObjectId object, Version version,
                           std::unique_ptr<Payload> payload) {
  control_phase_.Assert();
  if (failed_) {
    return;
  }
  const std::uint64_t seq = CopyGroupSeq(copy);
  if (seq <= stale_seq_floor_) {
    return;  // the copy's group already finished or was halted: stale duplicate, drop
  }
  Group* g = FindGroup(seq);
  if (g == nullptr) {
    // The group does not exist yet (data raced ahead of the control plane): buffer until
    // its receive command arrives.
    for (EarlyData& e : early_data_) {
      if (e.copy == copy) {
        e.object = object;
        e.version = version;
        e.payload = std::move(payload);
        return;
      }
    }
    early_data_.push_back(EarlyData{copy, object, version, std::move(payload)});
    return;
  }
  CopySlot& slot = EnsureCopySlot(*g, CopyLocalIndex(copy));
  if (slot.command >= 0 &&
      g->state->flags[static_cast<std::size_t>(slot.command)] == GroupState::kLaunched) {
    // Launched and not done: the receive is waiting on exactly this payload.
    store_.PutDense(store_.Intern(object), version, std::move(payload));
    CompleteCommand(seq, slot.command);
    return;
  }
  slot.has_data = true;
  slot.object = object;
  slot.version = version;
  slot.payload = std::move(payload);
}

void Worker::CompleteCommand(std::uint64_t group_seq, std::int32_t index) {
  Group* group = FindGroup(group_seq);
  if (group == nullptr) {
    return;
  }
  const auto i = static_cast<std::size_t>(index);
  std::uint8_t& flags = group->state->flags[i];
  NIMBUS_CHECK((flags & GroupState::kDone) == 0);
  flags |= GroupState::kDone;
  ++group->done_count;
  // The waiter list is walked in place. Launching a waiter can cascade into completing the
  // whole group, which retires it: its state goes back to the template and its table (or
  // streaming state) may lose its last holder and be freed. A group is done only once
  // every waiter has been released, so that can happen only inside the last release; the
  // walk therefore reads its bounds and each link before releasing, and touches nothing
  // of the group after the last one. While the group lives its lists cannot change: rows
  // are appended only by message handlers, never inside a cascade.
  if (group->streaming != nullptr) {
    const StreamingState& s = *group->streaming;
    for (std::int32_t link = s.first_waiter[i]; link >= 0;) {
      const StreamingState::WaiterLink w = s.links[static_cast<std::size_t>(link)];
      if (!ReleaseWaiter(group_seq, w.row)) {
        return;
      }
      link = w.next;
    }
  } else {
    const RunnableTable& t = *group->table;
    const std::uint32_t end = t.waiter_begin[i + 1];
    for (std::uint32_t k = t.waiter_begin[i]; k < end; ++k) {
      if (!ReleaseWaiter(group_seq, t.waiters[k])) {
        return;
      }
    }
  }
  FinishGroupIfDone(group_seq);
}

bool Worker::ReleaseWaiter(std::uint64_t group_seq, std::int32_t waiter) {
  Group* group = FindGroup(group_seq);
  if (group == nullptr) {
    return false;
  }
  std::int32_t& remaining = group->state->remaining[static_cast<std::size_t>(waiter)];
  NIMBUS_CHECK_GT(remaining, 0);
  if (--remaining == 0) {
    TryLaunch(*group, waiter);
  }
  return true;
}

void Worker::FinishGroupIfDone(std::uint64_t seq) {
  Group* group = FindGroup(seq);
  if (group == nullptr || !group->finalized || !group->started ||
      group->done_count != group->expected_total) {
    return;
  }
  NIMBUS_CHECK_EQ(group->done_count, group->table->rows.size());

  if (!group->reported) {
    group->reported = true;
    // Report completion (with any scalar results) to the controller.
    wire::GroupCompleteEnvelope e;
    e.worker = id_;
    e.group_seq = seq;
    e.scalars = std::move(group->scalars);
    const std::int64_t bytes = 64 + static_cast<std::int64_t>(e.scalars.size()) * 16;
    transport_->Send(address(), net::NodeAddress::Controller(), MessageKind::kControl,
                     wire::EncodeGroupCompleteEnvelope(e), /*cost_bytes=*/bytes);
  }

  // Prune completed groups from the front and unblock any waiting barrier group. Buffered
  // copy data dies with its group; any early data addressed below the retired floor can
  // never be claimed and is dropped too.
  bool pruned = false;
  while (!groups_.empty()) {
    Group& front = groups_.front();
    if (front.finalized && front.started && front.reported &&
        front.done_count == front.expected_total) {
      stale_seq_floor_ = std::max(stale_seq_floor_, front.seq);
      RecycleState(front);
      groups_.pop_front();
      pruned = true;
    } else {
      break;
    }
  }
  if (pruned && !early_data_.empty()) {
    early_data_.erase(std::remove_if(early_data_.begin(), early_data_.end(),
                                     [this](const EarlyData& e) {
                                       return CopyGroupSeq(e.copy) <= stale_seq_floor_;
                                     }),
                      early_data_.end());
  }
  MaybeStartGroups();
}

void Worker::RecycleState(Group& group) {
  if (group.template_index == kInvalidDenseIndex || group.state == nullptr) {
    return;
  }
  CachedTemplate& cached = templates_[group.template_index];
  if (cached.spare == nullptr) {
    group.state->copy_slots.clear();  // buffered data dies with its group
    cached.spare = std::move(group.state);
  }
}

Worker::Group* Worker::FindGroup(std::uint64_t seq) {
  for (Group& g : groups_) {
    if (g.seq == seq) {
      return &g;
    }
  }
  return nullptr;
}

}  // namespace nimbus
