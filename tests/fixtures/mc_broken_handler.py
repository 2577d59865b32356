"""Deliberately broken ClashHandler for the MC301–MC304 tests.

This file is *not* imported anywhere; it exists so the spec
cross-check rules can be exercised against a handler with known
defects (the rules key off the class name, so the machine contract
follows ``ClashHandler`` into this fixture):

* ``_fire_defence`` was deleted → MC301.
* ``on_announcement`` allocates (not in its allowed set) and arms a
  timer for an undeclared target → MC302 twice.
* ``on_timeout`` is handler-shaped but undeclared → MC303.
* ``on_announcement`` lost its retreat branch → MC304.
"""


class ClashHandler:
    def __init__(self, directory):
        self.directory = directory
        self.scheduler = directory.scheduler

    def on_announcement(self, entry):
        self.directory.allocator.allocate(15, None)
        self.directory.defend(entry)
        self._pending = self.scheduler.schedule(3.0, self._check_later)

    def _check_later(self):
        pass

    def on_timeout(self, entry):
        pass
