#include "src/vfs/dentry.h"

#include <cassert>

#include "src/util/epoch.h"

namespace dircache {

Dentry::Dentry(SuperBlock* sb, Dentry* parent, std::string name, Inode* inode,
               uint32_t initial_flags)
    : sb_(sb),
      parent_(parent),
      inode_(inode),
      flags_(initial_flags),
      name_(new std::string(std::move(name))) {
  if (inode != nullptr) {
    d_ino = inode->ino();
    d_type = inode->type();
  }
  if (parent != nullptr) {
    parent->DgetHeld();
  }
}

Dentry::~Dentry() {
  // Every child holds a reference on its parent, so none is left here.
  assert(children_ == nullptr || children_->size() == 0);
  delete name_.load(std::memory_order_relaxed);
}

void Dentry::set_name(std::string n) {
  const auto* fresh = new std::string(std::move(n));
  const std::string* old = name_.exchange(fresh, std::memory_order_acq_rel);
  EpochDomain::Global().RetireObject(const_cast<std::string*>(old));
}

}  // namespace dircache
