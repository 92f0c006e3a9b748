package main

// sysMemfdCreate is memfd_create's system call number on linux/arm64.
const sysMemfdCreate = 279
