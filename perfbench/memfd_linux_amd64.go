package main

// sysMemfdCreate is memfd_create's system call number on linux/amd64.
const sysMemfdCreate = 319
