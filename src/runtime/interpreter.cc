#include "runtime/interpreter.h"

#include <algorithm>

#include "support/check.h"
#include "support/str.h"

namespace snorlax::rt {

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kCrash:
      return "crash";
    case FailureKind::kAssert:
      return "assert";
    case FailureKind::kDeadlock:
      return "deadlock";
    case FailureKind::kTimeout:
      return "timeout";
  }
  return "?";
}

Interpreter::Interpreter(const ir::Module* module, InterpOptions options)
    : module_(module), options_(options), rng_(options.seed), memory_(module) {
  SNORLAX_CHECK(module != nullptr);
}

void Interpreter::AddObserver(ExecutionObserver* observer) {
  SNORLAX_CHECK(observer != nullptr);
  observers_.push_back(observer);
}

void Interpreter::SetWatchpoint(ir::InstId pc,
                                std::function<void(ThreadId, uint64_t)> callback) {
  watchpoints_[pc] = std::move(callback);
}

ThreadId Interpreter::SpawnThread(const ir::Function* func, const Value& arg,
                                  uint64_t start_ns) {
  SimThread thread;
  thread.id = static_cast<ThreadId>(threads_.size());
  thread.clock_ns = start_ns;
  Frame frame;
  frame.func = func;
  frame.regs.assign(func->num_regs(), Value::Int(0));
  if (func->num_params() >= 1) {
    frame.regs[0] = arg;
  }
  frame.block = func->entry();
  frame.next_index = 0;
  thread.stack.push_back(std::move(frame));
  threads_.push_back(std::move(thread));
  ++result_.threads_created;
  for (ExecutionObserver* obs : observers_) {
    obs->OnThreadStart(threads_.back().id, func, start_ns);
  }
  return threads_.back().id;
}

int Interpreter::PickNextThread() const {
  int best = -1;
  for (size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i].state != ThreadState::kRunnable) {
      continue;
    }
    if (best < 0 || threads_[i].clock_ns < threads_[static_cast<size_t>(best)].clock_ns) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

Value Interpreter::ReadOperand(const Frame& frame, const ir::Operand& op) const {
  if (op.IsReg()) {
    SNORLAX_CHECK(op.reg < frame.regs.size());
    return frame.regs[op.reg];
  }
  return Value::Int(op.imm);
}

void Interpreter::WriteReg(Frame& frame, ir::Reg reg, const Value& value) {
  SNORLAX_CHECK(reg < frame.regs.size());
  frame.regs[reg] = value;
}

void Interpreter::Fail(FailureKind kind, const ir::Instruction* inst, SimThread& thread,
                       const Value& operand, const std::string& description) {
  result_.failure.kind = kind;
  result_.failure.failing_inst = inst != nullptr ? inst->id() : ir::kInvalidInstId;
  result_.failure.thread = thread.id;
  result_.failure.operand = operand;
  result_.failure.time_ns = thread.clock_ns;
  result_.failure.description = description;
  finished_ = true;
  for (ExecutionObserver* obs : observers_) {
    obs->OnFailure(result_.failure);
  }
}

bool Interpreter::CheckDeadlock(SimThread& thread, const ir::Instruction* acquire_inst,
                                const Value& lock_ptr) {
  // Follow the wait-for chain: thread -> lock it waits on -> owner -> ...
  std::vector<FailureInfo::DeadlockWaiter> chain;
  ThreadId current = thread.id;
  while (true) {
    const SimThread& t = threads_[current];
    if (t.state != ThreadState::kBlockedOnLock && current != thread.id) {
      return false;  // chain ends at a thread that can still make progress
    }
    chain.push_back(FailureInfo::DeadlockWaiter{current, t.waiting_inst, t.clock_ns});
    auto it = locks_.find(t.waiting_lock);
    if (it == locks_.end() || it->second.owner == kInvalidThread) {
      return false;
    }
    current = it->second.owner;
    if (current == thread.id) {
      // Cycle closed: this acquisition deadlocked the group.
      FailureInfo& f = result_.failure;
      f.deadlock_cycle = chain;
      Fail(FailureKind::kDeadlock, acquire_inst, thread, lock_ptr,
           StrFormat("deadlock cycle of %zu threads", chain.size()));
      return true;
    }
    // Guard against malformed chains longer than the thread count.
    if (chain.size() > threads_.size()) {
      return false;
    }
  }
}

void Interpreter::NotifyRetired(SimThread& thread, const ir::Instruction* inst) {
  for (ExecutionObserver* obs : observers_) {
    thread.clock_ns += obs->OnInstructionRetired(thread.id, inst, thread.clock_ns);
  }
  if (!watchpoints_.empty()) {
    auto it = watchpoints_.find(inst->id());
    if (it != watchpoints_.end()) {
      it->second(thread.id, thread.clock_ns);
    }
  }
}

RunResult Interpreter::Run(const std::string& entry) {
  SNORLAX_CHECK_MSG(!ran_, "Interpreter::Run is one-shot");
  ran_ = true;
  const ir::Function* main_func = module_->FindFunction(entry);
  SNORLAX_CHECK_MSG(main_func != nullptr, "entry function not found");
  SpawnThread(main_func, Value::Int(0), 0);

  uint64_t steps = 0;
  while (!finished_) {
    const int idx = PickNextThread();
    if (idx < 0) {
      // No runnable thread. Either everything finished, or we hang.
      bool all_finished = true;
      for (const SimThread& t : threads_) {
        if (t.state != ThreadState::kFinished) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) {
        break;
      }
      // Blocked threads remain but no lock-cycle fired (e.g. a join on a
      // blocked thread): report it as a hang-style deadlock on the first
      // blocked thread.
      for (SimThread& t : threads_) {
        if (t.state == ThreadState::kBlockedOnLock || t.state == ThreadState::kBlockedOnJoin) {
          const ir::Instruction* inst =
              t.waiting_inst != ir::kInvalidInstId ? module_->instruction(t.waiting_inst) : nullptr;
          Fail(FailureKind::kDeadlock, inst, t, Value::Int(0), "hang: no runnable threads");
          break;
        }
      }
      break;
    }
    SimThread& thread = threads_[static_cast<size_t>(idx)];
    if (!Step(thread)) {
      break;
    }
    ++steps;
    ++result_.instructions_retired;
    if (steps > options_.max_steps || thread.clock_ns > options_.max_virtual_ns) {
      Fail(FailureKind::kTimeout, nullptr, thread, Value::Int(0), "execution budget exceeded");
      break;
    }
  }

  uint64_t max_clock = 0;
  for (const SimThread& t : threads_) {
    max_clock = std::max(max_clock, std::max(t.clock_ns, t.finish_time_ns));
  }
  result_.virtual_ns = max_clock;
  return result_;
}

bool Interpreter::Step(SimThread& thread) {
  Frame& frame = thread.stack.back();
  SNORLAX_CHECK(frame.block != nullptr && frame.next_index < frame.block->instructions().size());
  const ir::Instruction& inst = *frame.block->instructions()[frame.next_index];
  ++frame.next_index;

  const CostModel& c = options_.costs;

  switch (inst.opcode()) {
    case ir::Opcode::kAlloca: {
      thread.clock_ns += c.memory_ns;
      const ObjectId obj = memory_.Allocate(inst.pointee_type(), inst.id(), thread.id);
      WriteReg(frame, inst.result(), Value::Ptr(obj, 0));
      break;
    }
    case ir::Opcode::kAddrOfGlobal: {
      thread.clock_ns += c.default_ns;
      WriteReg(frame, inst.result(), Value::Ptr(memory_.GlobalObject(inst.global()), 0));
      break;
    }
    case ir::Opcode::kCopy:
    case ir::Opcode::kCast: {
      thread.clock_ns += c.default_ns;
      WriteReg(frame, inst.result(), ReadOperand(frame, inst.operand(0)));
      break;
    }
    case ir::Opcode::kLoad: {
      thread.clock_ns += c.memory_ns;
      const Value ptr = ReadOperand(frame, inst.operand(0));
      Value out;
      const AccessError err = memory_.Load(ptr, &out);
      if (err != AccessError::kOk) {
        Fail(FailureKind::kCrash, &inst, thread, ptr,
             StrFormat("load: %s", AccessErrorName(err)));
        return false;
      }
      WriteReg(frame, inst.result(), out);
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnMemoryAccess(thread.id, &inst, ptr.obj, ptr.off,
                                               /*is_write=*/false, thread.clock_ns);
      }
      break;
    }
    case ir::Opcode::kStore: {
      thread.clock_ns += c.memory_ns;
      const Value value = ReadOperand(frame, inst.operand(0));
      const Value ptr = ReadOperand(frame, inst.operand(1));
      const AccessError err = memory_.Store(ptr, value);
      if (err != AccessError::kOk) {
        Fail(FailureKind::kCrash, &inst, thread, ptr,
             StrFormat("store: %s", AccessErrorName(err)));
        return false;
      }
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnMemoryAccess(thread.id, &inst, ptr.obj, ptr.off,
                                               /*is_write=*/true, thread.clock_ns);
      }
      break;
    }
    case ir::Opcode::kGep: {
      thread.clock_ns += c.default_ns;
      const Value base = ReadOperand(frame, inst.operand(0));
      if (base.IsPtr()) {
        WriteReg(frame, inst.result(),
                 Value::Ptr(base.obj, base.off + static_cast<uint32_t>(inst.imm())));
      } else {
        // Null/garbage base: propagate unchanged so the eventual dereference
        // (not the address computation) is the failing instruction, as on
        // real hardware.
        WriteReg(frame, inst.result(), base);
      }
      break;
    }
    case ir::Opcode::kFree: {
      thread.clock_ns += c.memory_ns;
      const Value ptr = ReadOperand(frame, inst.operand(0));
      const AccessError err = memory_.Free(ptr);
      if (err != AccessError::kOk) {
        Fail(FailureKind::kCrash, &inst, thread, ptr,
             StrFormat("free: %s", AccessErrorName(err)));
        return false;
      }
      break;
    }
    case ir::Opcode::kConst: {
      thread.clock_ns += c.default_ns;
      WriteReg(frame, inst.result(), Value::Int(inst.imm()));
      break;
    }
    case ir::Opcode::kRandom: {
      thread.clock_ns += c.default_ns;
      const Value lo = ReadOperand(frame, inst.operand(0));
      const Value hi = ReadOperand(frame, inst.operand(1));
      SNORLAX_CHECK_MSG(lo.IsInt() && hi.IsInt() && lo.ival <= hi.ival, "bad random bounds");
      WriteReg(frame, inst.result(), Value::Int(rng_.NextInRange(lo.ival, hi.ival)));
      break;
    }
    case ir::Opcode::kFuncAddr: {
      thread.clock_ns += c.default_ns;
      WriteReg(frame, inst.result(), Value::Func(inst.callee()));
      break;
    }
    case ir::Opcode::kBinOp: {
      thread.clock_ns += c.default_ns;
      const Value lhs = ReadOperand(frame, inst.operand(0));
      const Value rhs = ReadOperand(frame, inst.operand(1));
      SNORLAX_CHECK_MSG(lhs.IsInt() && rhs.IsInt(), "binop on non-integers");
      int64_t r = 0;
      switch (inst.binop()) {
        case ir::BinOpKind::kAdd:
          r = lhs.ival + rhs.ival;
          break;
        case ir::BinOpKind::kSub:
          r = lhs.ival - rhs.ival;
          break;
        case ir::BinOpKind::kMul:
          r = lhs.ival * rhs.ival;
          break;
        case ir::BinOpKind::kAnd:
          r = lhs.ival & rhs.ival;
          break;
        case ir::BinOpKind::kOr:
          r = lhs.ival | rhs.ival;
          break;
        case ir::BinOpKind::kXor:
          r = lhs.ival ^ rhs.ival;
          break;
        case ir::BinOpKind::kShl:
          r = lhs.ival << (rhs.ival & 63);
          break;
        case ir::BinOpKind::kShr:
          r = static_cast<int64_t>(static_cast<uint64_t>(lhs.ival) >> (rhs.ival & 63));
          break;
      }
      WriteReg(frame, inst.result(), Value::Int(r));
      break;
    }
    case ir::Opcode::kCmp: {
      thread.clock_ns += c.default_ns;
      const Value lhs = ReadOperand(frame, inst.operand(0));
      const Value rhs = ReadOperand(frame, inst.operand(1));
      bool r = false;
      if (inst.cmp() == ir::CmpKind::kEq || inst.cmp() == ir::CmpKind::kNe) {
        // Mixed-kind equality supports C-style null checks: a live pointer
        // never equals integer 0.
        const bool eq = lhs == rhs;
        r = inst.cmp() == ir::CmpKind::kEq ? eq : !eq;
      } else {
        SNORLAX_CHECK_MSG(lhs.IsInt() && rhs.IsInt(), "relational cmp on non-integers");
        switch (inst.cmp()) {
          case ir::CmpKind::kLt:
            r = lhs.ival < rhs.ival;
            break;
          case ir::CmpKind::kLe:
            r = lhs.ival <= rhs.ival;
            break;
          case ir::CmpKind::kGt:
            r = lhs.ival > rhs.ival;
            break;
          case ir::CmpKind::kGe:
            r = lhs.ival >= rhs.ival;
            break;
          default:
            break;
        }
      }
      WriteReg(frame, inst.result(), Value::Int(r ? 1 : 0));
      break;
    }
    case ir::Opcode::kBr: {
      thread.clock_ns += c.default_ns;
      frame.block = module_->block(inst.then_block());
      frame.next_index = 0;
      break;
    }
    case ir::Opcode::kCondBr: {
      thread.clock_ns += c.default_ns;
      const bool taken = ReadOperand(frame, inst.operand(0)).IsTruthy();
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnCondBranch(thread.id, &inst, taken, thread.clock_ns);
      }
      frame.block = module_->block(taken ? inst.then_block() : inst.else_block());
      frame.next_index = 0;
      break;
    }
    case ir::Opcode::kCall: {
      thread.clock_ns += c.call_ns;
      const ir::Function* callee = module_->function(inst.callee());
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnCall(thread.id, &inst, callee, /*is_indirect=*/false,
                                       thread.clock_ns);
      }
      Frame new_frame;
      new_frame.func = callee;
      new_frame.regs.assign(callee->num_regs(), Value::Int(0));
      for (size_t i = 0; i < inst.num_operands(); ++i) {
        new_frame.regs[i] = ReadOperand(frame, inst.operand(i));
      }
      new_frame.block = callee->entry();
      new_frame.result_reg = inst.result();
      thread.stack.push_back(std::move(new_frame));
      break;
    }
    case ir::Opcode::kCallIndirect: {
      thread.clock_ns += c.call_ns;
      const Value target = ReadOperand(frame, inst.operand(0));
      if (!target.IsFunc()) {
        Fail(FailureKind::kCrash, &inst, thread, target, "indirect call through non-function");
        return false;
      }
      const ir::Function* callee = module_->function(static_cast<ir::FuncId>(target.ival));
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnCall(thread.id, &inst, callee, /*is_indirect=*/true,
                                       thread.clock_ns);
      }
      Frame new_frame;
      new_frame.func = callee;
      new_frame.regs.assign(callee->num_regs(), Value::Int(0));
      for (size_t i = 1; i < inst.num_operands(); ++i) {
        new_frame.regs[i - 1] = ReadOperand(frame, inst.operand(i));
      }
      new_frame.block = callee->entry();
      new_frame.result_reg = inst.result();
      thread.stack.push_back(std::move(new_frame));
      break;
    }
    case ir::Opcode::kRet: {
      thread.clock_ns += c.call_ns;
      Value ret_value = Value::Int(0);
      const bool has_value = inst.num_operands() == 1;
      if (has_value) {
        ret_value = ReadOperand(frame, inst.operand(0));
      }
      const ir::Reg result_reg = frame.result_reg;
      thread.stack.pop_back();
      if (thread.stack.empty()) {
        for (ExecutionObserver* obs : observers_) {
          thread.clock_ns += obs->OnReturn(thread.id, &inst, ir::kInvalidBlockId, 0,
                                           thread.clock_ns);
        }
        thread.state = ThreadState::kFinished;
        thread.finish_time_ns = thread.clock_ns;
        for (ExecutionObserver* obs : observers_) {
          obs->OnThreadExit(thread.id, thread.clock_ns);
        }
        // Wake joiners.
        for (SimThread& t : threads_) {
          if (t.state == ThreadState::kBlockedOnJoin && t.join_target == thread.id) {
            t.state = ThreadState::kRunnable;
            t.clock_ns = std::max(t.clock_ns, thread.clock_ns + 1);
            t.join_target = kInvalidThread;
            t.waiting_inst = ir::kInvalidInstId;
          }
        }
      } else {
        const Frame& caller = thread.stack.back();
        for (ExecutionObserver* obs : observers_) {
          thread.clock_ns += obs->OnReturn(thread.id, &inst, caller.block->id(),
                                           static_cast<uint32_t>(caller.next_index),
                                           thread.clock_ns);
        }
        if (has_value && result_reg != ir::kInvalidReg) {
          WriteReg(thread.stack.back(), result_reg, ret_value);
        }
      }
      NotifyRetired(thread, &inst);
      return !finished_;
    }
    case ir::Opcode::kLockAcquire: {
      thread.clock_ns += c.lock_ns;
      const Value ptr = ReadOperand(frame, inst.operand(0));
      ObjectId obj;
      uint32_t off;
      const AccessError err = memory_.CheckAccess(ptr, &obj, &off);
      if (err != AccessError::kOk) {
        Fail(FailureKind::kCrash, &inst, thread, ptr,
             StrFormat("lock: %s", AccessErrorName(err)));
        return false;
      }
      LockState& lock = locks_[obj];
      if (lock.owner == kInvalidThread) {
        lock.owner = thread.id;
        for (ExecutionObserver* obs : observers_) {
          thread.clock_ns += obs->OnLockOp(thread.id, &inst, obj, /*is_acquire=*/true,
                                           thread.clock_ns);
        }
      } else if (lock.owner == thread.id) {
        if (thread.waiting_inst == inst.id()) {
          // This thread blocked here earlier and the releasing thread handed
          // the lock off to it; the retried acquire now succeeds.
          thread.waiting_inst = ir::kInvalidInstId;
          for (ExecutionObserver* obs : observers_) {
            thread.clock_ns += obs->OnLockOp(thread.id, &inst, obj, /*is_acquire=*/true,
                                             thread.clock_ns);
          }
        } else {
          Fail(FailureKind::kCrash, &inst, thread, ptr, "recursive lock acquisition");
          return false;
        }
      } else {
        // Block; roll back so the acquire retries (and is re-reported) once
        // the lock is granted.
        --frame.next_index;
        thread.state = ThreadState::kBlockedOnLock;
        thread.waiting_lock = obj;
        thread.waiting_inst = inst.id();
        lock.waiters.push_back(thread.id);
        if (CheckDeadlock(thread, &inst, ptr)) {
          return false;
        }
        return true;  // do not retire; thread is parked
      }
      break;
    }
    case ir::Opcode::kLockRelease: {
      thread.clock_ns += c.lock_ns;
      const Value ptr = ReadOperand(frame, inst.operand(0));
      ObjectId obj;
      uint32_t off;
      const AccessError err = memory_.CheckAccess(ptr, &obj, &off);
      if (err != AccessError::kOk) {
        Fail(FailureKind::kCrash, &inst, thread, ptr,
             StrFormat("unlock: %s", AccessErrorName(err)));
        return false;
      }
      auto it = locks_.find(obj);
      if (it == locks_.end() || it->second.owner != thread.id) {
        Fail(FailureKind::kCrash, &inst, thread, ptr, "unlock of lock not held");
        return false;
      }
      LockState& lock = it->second;
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnLockOp(thread.id, &inst, obj, /*is_acquire=*/false,
                                         thread.clock_ns);
      }
      if (lock.waiters.empty()) {
        lock.owner = kInvalidThread;
      } else {
        // Hand off FIFO; the waiter resumes no earlier than the release time.
        const ThreadId next = lock.waiters.front();
        lock.waiters.erase(lock.waiters.begin());
        lock.owner = next;
        SimThread& waiter = threads_[next];
        waiter.state = ThreadState::kRunnable;
        waiter.clock_ns = std::max(waiter.clock_ns, thread.clock_ns + 1);
        waiter.waiting_lock = kInvalidObject;
        // waiting_inst stays until the retried acquire retires.
      }
      break;
    }
    case ir::Opcode::kThreadCreate: {
      thread.clock_ns += c.spawn_ns;
      const ir::Function* callee = module_->function(inst.callee());
      const Value arg = ReadOperand(frame, inst.operand(0));
      const ThreadId child = SpawnThread(callee, arg, thread.clock_ns);
      WriteReg(frame, inst.result(), Value::Int(child));
      break;
    }
    case ir::Opcode::kThreadJoin: {
      thread.clock_ns += c.default_ns;
      const Value handle = ReadOperand(frame, inst.operand(0));
      SNORLAX_CHECK_MSG(handle.IsInt() && handle.ival >= 0 &&
                            static_cast<size_t>(handle.ival) < threads_.size(),
                        "join of invalid thread handle");
      SimThread& target = threads_[static_cast<size_t>(handle.ival)];
      if (target.state == ThreadState::kFinished) {
        thread.clock_ns = std::max(thread.clock_ns, target.finish_time_ns + 1);
      } else {
        --frame.next_index;  // retry once woken
        thread.state = ThreadState::kBlockedOnJoin;
        thread.join_target = target.id;
        thread.waiting_inst = inst.id();
        return true;
      }
      break;
    }
    case ir::Opcode::kYield: {
      thread.clock_ns += c.default_ns;
      break;
    }
    case ir::Opcode::kAssert: {
      thread.clock_ns += c.default_ns;
      const Value cond = ReadOperand(frame, inst.operand(0));
      if (!cond.IsTruthy()) {
        Fail(FailureKind::kAssert, &inst, thread, cond, "assertion failed");
        return false;
      }
      break;
    }
    case ir::Opcode::kWork: {
      const double jitter = options_.work_jitter;
      double factor = 1.0;
      if (jitter > 0.0) {
        factor += jitter * (2.0 * rng_.NextDouble() - 1.0);
      }
      const uint64_t duration =
          static_cast<uint64_t>(static_cast<double>(inst.imm()) * factor);
      thread.clock_ns += duration;
      for (ExecutionObserver* obs : observers_) {
        thread.clock_ns += obs->OnWork(thread.id, duration, thread.clock_ns);
      }
      break;
    }
    case ir::Opcode::kNop: {
      thread.clock_ns += c.default_ns;
      break;
    }
  }

  NotifyRetired(thread, &inst);
  return !finished_;
}

}  // namespace snorlax::rt
