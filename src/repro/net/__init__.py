"""Network substrate: addressing, packets, layer-2 framing, links,
discrete-event simulation, topologies and traffic generation.

The paper's MPLS routers sit between layer-2 networks (Ethernet, ATM,
Frame Relay -- Figure 1) and an MPLS core.  This subpackage supplies
everything around the routers: the packets they carry, the frames the
LERs adapt, the links and event queue that make a network run, and the
traffic sources (CBR, VoIP, video) the paper's introduction
motivates.
"""

from repro.net.addressing import IPv4Address, IPv4Prefix
from repro.net.packet import IPv4Packet, MPLSPacket
from repro.net.ethernet import EthernetFrame, ETHERTYPE_IPV4, ETHERTYPE_MPLS
from repro.net.atm import AAL5Frame, ATMCell, segment_aal5, reassemble_aal5
from repro.net.frame_relay import FrameRelayFrame
from repro.net.events import EventScheduler, Event
from repro.net.link import Link, Interface
from repro.net.topology import Topology, TopologyError
from repro.net.network import MPLSNetwork, Delivery, Drop
from repro.net.traffic import CBRSource, VoIPSource, VideoSource

__all__ = [
    "IPv4Address",
    "IPv4Prefix",
    "IPv4Packet",
    "MPLSPacket",
    "EthernetFrame",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_MPLS",
    "ATMCell",
    "AAL5Frame",
    "segment_aal5",
    "reassemble_aal5",
    "FrameRelayFrame",
    "EventScheduler",
    "Event",
    "Link",
    "Interface",
    "Topology",
    "TopologyError",
    "MPLSNetwork",
    "Delivery",
    "Drop",
    "CBRSource",
    "VoIPSource",
    "VideoSource",
]
