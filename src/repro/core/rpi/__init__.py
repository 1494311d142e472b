"""Request progression interface (RPI) modules.

LAM's RPI is the pluggable layer that moves requests from initialization
to completion over a concrete transport (§2.2.1).  ``base.py`` holds the
transport-independent protocol engine (eager / rendezvous / synchronous
short, unexpected-message buffering, ACK bookkeeping); ``tcp_rpi.py`` and
``sctp_rpi.py`` bind it to the two transports exactly the way LAM-TCP and
the paper's LAM-SCTP module do.

Like LAM, a job loads one RPI: :class:`repro.core.world.World` imports the
module ``WorldConfig.rpi`` names (with its transport) when it is built, so
this package imports neither and re-exports nothing.
"""
