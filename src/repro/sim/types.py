"""Named aliases for the quantities the simulator moves around.

The paper's allocators work over a dense index space ``0..size-1``
mapped onto real multicast ranges.  These aliases name each quantity
in the annotations across ``core``, ``sim`` and ``sap``:

* ``Addr`` — an absolute IPv4 multicast address as a 32-bit int
  (``224.0.0.0`` = ``0xE0000000`` upward).
* ``SlotIndex`` — a dense index into a
  :class:`~repro.core.address_space.MulticastAddressSpace`,
  ``0..size-1``.  This is what allocators pick and what
  ``Session.address`` stores.
* ``Ttl`` — an IPv4 scope TTL, ``1..255``.
* ``SimTime`` — an absolute simulated timestamp in seconds.
* ``Duration`` — a relative time span in seconds.
* ``Count`` — a dimensionless cardinality (space sizes, trial counts).

They are plain aliases, not :func:`typing.NewType` wrappers: at
runtime and to mypy every ``Addr`` is an ``int`` and every
``SimTime`` is a ``float``.

This module imports nothing, so ``core``, ``sim`` and ``sap`` can all
use it without an import cycle.
"""

Addr = int
SlotIndex = int
Ttl = int
SimTime = float
Duration = float
Count = int
